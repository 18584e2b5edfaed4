// Command deadcode lists the package-level declarations of the module's
// non-test code that no main package can reach, and fails on any that
// the committed allowlist does not name.
//
// Usage (from anywhere inside the module):
//
//	go run ./scripts/deadcode [-v]
//
// It loads every package of the module and of the modules nested in it
// (the benchmark module under bench/), honouring build constraints, and
// type-checks them from source against the standard library's source
// importer, so it needs nothing but the Go toolchain. The roots are the
// main function of every main package found, and the init functions of
// every package they import. From a reachable declaration, every
// package-level object its source names is reachable too; a use of a
// generic instantiation counts as a use of its origin. A method is
// reachable when its receiver type is, and either reachable code
// selects it or some interface in the loaded program, the standard
// library included, declares a method of its name (the call may go
// through that interface). A type passed to net/rpc's Register or
// RegisterName has all its methods selected, since the server calls
// them by reflection. A blank variable's initializer runs whenever its
// package is linked in, so it is a root like init, except in the bare
// assertion forms var _ I = T{} and var _ I = (*T)(nil), which reach
// nothing.
//
// Only declarations of the root module are reported. Each line of the
// allowlist (scripts/deadcode/allow.txt) is
//
//	<package dir>[.<Name>[.<Method>]] <kind> <reason>
//
// where kind is one of oracle (a reference implementation a named test
// compares production output against), test-support (a package only
// tests import), reflection (called by reflection, not by name) or
// roadmap (paper code a ROADMAP item names the next caller of). An entry
// that names a package dir alone covers every declaration in it. The run
// fails on an unreachable declaration no entry covers, on an entry that
// covers no unreachable declaration (it became reachable or was
// deleted), on an entry of another kind or without a reason, and when
// the list grows past allowCeiling. With -v it prints every unreachable
// declaration, allowed or not.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowCeiling is the number of allowlist entries today. The list may
// only shrink: lower this when an entry goes.
const allowCeiling = 11

func main() {
	verbose := flag.Bool("v", false, "print every unreachable declaration, allowed or not")
	flag.Parse()
	dir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, dir, filepath.Join(dir, "scripts", "deadcode", "allow.txt"), allowCeiling, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// run checks the module at root against the allowlist at allowPath and
// returns an error listing every problem found.
func run(w io.Writer, root, allowPath string, ceiling int, verbose bool) error {
	dead, err := Unreachable(root)
	if err != nil {
		return err
	}
	return check(w, dead, allowPath, ceiling, verbose)
}

// check holds the unreachable declarations dead to the allowlist at
// allowPath.
func check(w io.Writer, dead []Decl, allowPath string, ceiling int, verbose bool) error {
	entries, err := readAllow(allowPath)
	if err != nil {
		return err
	}
	var problems []string
	if len(entries) > ceiling {
		problems = append(problems, fmt.Sprintf("%s has %d entries, over its ceiling of %d: the list may only shrink", allowPath, len(entries), ceiling))
	}
	used := make([]bool, len(entries))
	for _, d := range dead {
		i := covering(entries, d.ID)
		if i >= 0 {
			used[i] = true
			if verbose {
				fmt.Fprintf(w, "%s allowed: %s\n", d, entries[i].kind)
			}
			continue
		}
		if verbose {
			fmt.Fprintln(w, d)
		}
		problems = append(problems, fmt.Sprintf("%s has no production caller", d))
	}
	for i, e := range entries {
		where := fmt.Sprintf("%s:%d", allowPath, e.line)
		if !validKinds[e.kind] {
			problems = append(problems, fmt.Sprintf("%s: %s: kind %q is not one of oracle, test-support, reflection, roadmap", where, e.id, e.kind))
		}
		if e.reason == "" {
			problems = append(problems, fmt.Sprintf("%s: %s gives no reason", where, e.id))
		}
		if !used[i] {
			problems = append(problems, fmt.Sprintf("%s: %s is stale: it is reachable now or no longer exists; delete the entry", where, e.id))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n"))
	}
	return nil
}

// Decl is one unreachable package-level declaration.
type Decl struct {
	ID   string // package dir relative to the root, then .Name or .Type.Method
	File string // relative to the root
	Line int
}

func (d Decl) String() string { return fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.ID) }

var validKinds = map[string]bool{"oracle": true, "test-support": true, "reflection": true, "roadmap": true}

type entry struct {
	id, kind, reason string
	line             int
}

func readAllow(path string) ([]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []entry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		e := entry{id: fields[0], line: n}
		if len(fields) > 1 {
			e.kind = fields[1]
			e.reason = strings.Join(fields[2:], " ")
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// covering returns the index of the entry that names id or its package,
// or -1.
func covering(entries []entry, id string) int {
	pkgDir := id[:strings.Index(id, ".")]
	for i, e := range entries {
		if e.id == id || e.id == pkgDir {
			return i
		}
	}
	return -1
}

// walkPackages calls fn for every directory under root that may hold a
// package, skipping testdata, hidden and underscore directories. nested
// reports whether the directory belongs to a module nested under root.
func walkPackages(root string, fn func(dir string, nested bool) error) error {
	var nestedRoots []string
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				nestedRoots = append(nestedRoots, path)
			}
		}
		nested := false
		for _, r := range nestedRoots {
			if path == r || strings.HasPrefix(path, r+string(filepath.Separator)) {
				nested = true
			}
		}
		return fn(path, nested)
	})
}

// module is one module of the loaded tree: its path, its directory and
// whether its declarations are reported.
type module struct {
	path, dir string
	report    bool
}

type pkg struct {
	path, dir string
	report    bool
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

type loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	mods    []module
	std     types.ImporterFrom
	pkgs    map[string]*pkg
	loading map[string]bool
}

// Unreachable loads the module at root and the modules nested under it
// and returns the root module's unreachable declarations, sorted by
// position.
func Unreachable(root string) ([]Decl, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// The module has no cgo; without it the standard library's source
	// importer needs no C toolchain either.
	build.Default.CgoEnabled = false
	l := &loader{
		fset:    token.NewFileSet(),
		ctxt:    build.Default,
		pkgs:    make(map[string]*pkg),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	var dirs []string
	err = walkPackages(root, func(dir string, nested bool) error {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			path, err := modulePath(filepath.Join(dir, "go.mod"))
			if err != nil {
				return err
			}
			l.mods = append(l.mods, module{path: path, dir: dir, report: !nested})
		}
		dirs = append(dirs, dir)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Longest module path first, so a nested module wins its prefix.
	sort.Slice(l.mods, func(i, j int) bool { return len(l.mods[i].path) > len(l.mods[j].path) })
	for _, dir := range dirs {
		path, ok := l.pathOf(dir)
		if !ok {
			continue
		}
		if _, err := l.load(path); err != nil && !isNoGo(err) {
			return nil, err
		}
	}
	return l.analyse(root)
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *loader) pathOf(dir string) (string, bool) {
	for _, m := range l.mods {
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if rel == "." {
			return m.path, true
		}
		return m.path + "/" + filepath.ToSlash(rel), true
	}
	return "", false
}

// moduleOf returns the module an import path belongs to.
func (l *loader) moduleOf(path string) (module, bool) {
	for _, m := range l.mods {
		if path == m.path || strings.HasPrefix(path, m.path+"/") {
			return m, true
		}
	}
	return module{}, false
}

func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.moduleOf(path); !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks one package of a loaded module.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	m, _ := l.moduleOf(path)
	dir := filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err == nil && len(bp.GoFiles) == 0 {
		err = &build.NoGoError{Dir: dir}
	}
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, dir: dir, report: m.report}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// node is one package-level declaration: a function, method, type,
// variable or constant.
type node struct {
	obj      types.Object
	pkg      *pkg
	syntax   []ast.Node // what the declaration's source names
	pos      token.Pos
	live     bool
	selected bool    // a method reachable code selects
	recv     *node   // a method's receiver type
	methods  []*node // a type's methods
}

type graph struct {
	nodes  map[types.Object]*node
	ifaces map[string]bool // method names some interface declares
	queue  []*node
}

func (l *loader) analyse(root string) ([]Decl, error) {
	// error is the one interface no parsed file declares.
	g := &graph{nodes: make(map[types.Object]*node), ifaces: map[string]bool{"Error": true}}
	var roots []*node
	for _, p := range l.pkgs {
		for _, f := range p.files {
			collectIfaces(f, g.ifaces)
			for _, d := range f.Decls {
				roots = append(roots, g.add(p, d)...)
			}
		}
	}
	if err := l.stdIfaces(g.ifaces); err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		if n.recv != nil {
			n.recv.methods = append(n.recv.methods, n)
		}
	}
	// init functions run whenever their package is linked in: root them
	// for every package a main package imports.
	imported := make(map[string]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if imported[tp.Path()] {
			return
		}
		imported[tp.Path()] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		if p.types.Name() == "main" {
			visit(p.types)
		}
	}
	for _, n := range roots {
		if imported[n.pkg.path] {
			g.mark(n)
		}
	}
	for len(g.queue) > 0 {
		n := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, s := range n.syntax {
			g.walk(n.pkg, s)
		}
	}
	var out []Decl
	for _, n := range g.nodes {
		if n.live || !n.pkg.report {
			continue
		}
		pos := l.fset.Position(n.pos)
		file, _ := filepath.Rel(root, pos.Filename)
		rel, _ := filepath.Rel(root, n.pkg.dir)
		id := filepath.ToSlash(rel) + "."
		if n.recv != nil {
			id += n.recv.obj.Name() + "."
		}
		out = append(out, Decl{ID: id + n.obj.Name(), File: filepath.ToSlash(file), Line: pos.Line})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.ID < b.ID
	})
	return out, nil
}

// add records the nodes one top-level declaration defines and returns
// the ones that are roots (main, init, a blank variable's initializer).
func (g *graph) add(p *pkg, d ast.Decl) []*node {
	var roots []*node
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := p.info.Defs[d.Name]
		n := &node{obj: obj, pkg: p, syntax: []ast.Node{d}, pos: d.Pos()}
		if d.Recv != nil {
			n.recv = g.nodes[recvType(obj)]
			if n.recv == nil {
				// The type's declaration comes later in the files:
				// make its node now, filled in when it is reached.
				n.recv = &node{obj: recvType(obj), pkg: p}
				g.nodes[n.recv.obj] = n.recv
			}
			g.nodes[obj] = n
			return nil
		}
		if d.Name.Name == "init" {
			return []*node{n}
		}
		g.nodes[obj] = n
		if d.Name.Name == "main" && p.types.Name() == "main" {
			return []*node{n}
		}
	case *ast.GenDecl:
		var last []ast.Node // a const spec without values repeats the previous one's
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				obj := p.info.Defs[s.Name]
				n := g.nodes[obj]
				if n == nil {
					n = &node{obj: obj}
					g.nodes[obj] = n
				}
				n.pkg, n.syntax, n.pos = p, []ast.Node{s}, s.Pos()
			case *ast.ValueSpec:
				syntax := []ast.Node{s}
				if d.Tok == token.CONST && s.Type == nil && len(s.Values) == 0 {
					syntax = append(syntax, last...)
				} else {
					last = syntax
				}
				for _, name := range s.Names {
					if name.Name != "_" {
						obj := p.info.Defs[name]
						g.nodes[obj] = &node{obj: obj, pkg: p, syntax: syntax, pos: s.Pos()}
					} else if d.Tok == token.VAR && !assertion(p, s.Values) {
						roots = append(roots, &node{pkg: p, syntax: syntax})
					}
				}
			}
		}
	}
	return roots
}

// assertion reports whether a blank variable's values are all the bare
// compile-time assertion forms T{} and (*T)(nil), which run nothing.
func assertion(p *pkg, values []ast.Expr) bool {
	for _, v := range values {
		switch v := ast.Unparen(v).(type) {
		case *ast.CompositeLit:
			if len(v.Elts) > 0 {
				return false
			}
		case *ast.CallExpr:
			if len(v.Args) != 1 || !p.info.Types[v.Fun].IsType() || !p.info.Types[v.Args[0]].IsNil() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func recvType(fn types.Object) types.Object {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

func (g *graph) mark(n *node) {
	if n.live {
		return
	}
	n.live = true
	g.queue = append(g.queue, n)
	for _, m := range n.methods {
		if m.selected || g.ifaces[m.obj.Name()] {
			g.mark(m)
		}
	}
}

// use records that reachable code names obj.
func (g *graph) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	n := g.nodes[obj]
	if n == nil {
		return
	}
	if n.recv == nil {
		g.mark(n)
		return
	}
	n.selected = true
	if n.recv.live {
		g.mark(n)
	}
}

// walk marks what the syntax of a reachable declaration names.
func (g *graph) walk(p *pkg, root ast.Node) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if obj := p.info.Uses[x]; obj != nil {
				g.use(obj)
			}
		case *ast.CallExpr:
			if isRPCRegister(p, x.Fun) && len(x.Args) > 0 {
				g.registerRPC(p.info.TypeOf(x.Args[len(x.Args)-1]))
			}
		}
		return true
	})
}

// isRPCRegister reports whether fun is net/rpc's Register or
// RegisterName, as a package function or a *rpc.Server method.
func isRPCRegister(p *pkg, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Register" && sel.Sel.Name != "RegisterName" {
		return false
	}
	obj := p.info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/rpc"
}

// registerRPC selects every method of a type net/rpc serves.
func (g *graph) registerRPC(t types.Type) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	n := g.nodes[named.Origin().Obj()]
	if n == nil {
		return
	}
	g.mark(n)
	for _, m := range n.methods {
		g.use(m.obj)
	}
}

// collectIfaces adds the method names of every interface type f spells
// out, named or not.
func collectIfaces(f *ast.File, names map[string]bool) {
	ast.Inspect(f, func(x ast.Node) bool {
		if it, ok := x.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					names[name.Name] = true
				}
			}
		}
		return true
	})
}

// stdIfaces parses the non-module packages the loaded program imports
// and adds the method names of their interfaces, so a method called
// through, say, an anonymous interface in errors.Is or fmt counts.
func (l *loader) stdIfaces(names map[string]bool) error {
	seen := make(map[string]bool)
	var visit func(tp *types.Package) error
	visit = func(tp *types.Package) error {
		if seen[tp.Path()] {
			return nil
		}
		seen[tp.Path()] = true
		if _, ok := l.moduleOf(tp.Path()); !ok && tp.Path() != "unsafe" {
			bp, err := l.ctxt.Import(tp.Path(), "", 0)
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				collectIfaces(f, names)
			}
		}
		for _, imp := range tp.Imports() {
			if err := visit(imp); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range l.pkgs {
		if err := visit(p.types); err != nil {
			return err
		}
	}
	return nil
}
