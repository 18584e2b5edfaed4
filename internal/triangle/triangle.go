// Package triangle implements Section 4 of the paper: the triangle-finding
// problem, its lower bound r ≥ n/√(2q) (with the √(m/q) rescaling for
// sparse data graphs of Section 4.2), and a partition-based one-round
// algorithm in the style of Suri–Vassilvitskii [21] and Afrati–Fotakis–
// Ullman [2] that matches the bound to within a constant factor.
package triangle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/mr"
)

// Problem is the triangle problem on the complete input universe: inputs
// are the C(n,2) possible edges of an n-node graph, outputs are the C(n,3)
// node triples, each depending on its three edges (Example 2.2).
type Problem struct {
	N int
}

// NewProblem returns the triangle problem for n nodes.
func NewProblem(n int) Problem { return Problem{N: n} }

// Name implements core.Problem.
func (p Problem) Name() string { return fmt.Sprintf("triangles(n=%d)", p.N) }

// NumInputs implements core.Problem: C(n,2) possible edges.
func (p Problem) NumInputs() int { return p.N * (p.N - 1) / 2 }

// NumOutputs implements core.Problem: C(n,3) triples.
func (p Problem) NumOutputs() int { return p.N * (p.N - 1) * (p.N - 2) / 6 }

// EdgeIndex maps an edge {u, v} with u < v to its dense input index.
func (p Problem) EdgeIndex(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return u*p.N - u*(u+1)/2 + (v - u - 1)
}

// EdgeFromIndex is the inverse of EdgeIndex.
func (p Problem) EdgeFromIndex(idx int) (u, v int) {
	u = 0
	for {
		rowLen := p.N - u - 1
		if idx < rowLen {
			return u, u + 1 + idx
		}
		idx -= rowLen
		u++
	}
}

// ForEachOutput implements core.Problem: the triple {u,v,w} depends on
// edges {u,v}, {u,w}, {v,w}.
func (p Problem) ForEachOutput(fn func(inputs []int) bool) {
	buf := make([]int, 3)
	for u := 0; u < p.N; u++ {
		for v := u + 1; v < p.N; v++ {
			for w := v + 1; w < p.N; w++ {
				buf[0] = p.EdgeIndex(u, v)
				buf[1] = p.EdgeIndex(u, w)
				buf[2] = p.EdgeIndex(v, w)
				if !fn(buf) {
					return
				}
			}
		}
	}
}

// Recipe returns the Section 4.1 recipe: g(q) = (√2/3)·q^{3/2}, |I| ≈
// n²/2, |O| ≈ n³/6, yielding r ≥ n/√(2q).
func Recipe(n int) core.Recipe {
	nf := float64(n)
	return core.Recipe{
		ProblemName: fmt.Sprintf("triangles(n=%d)", n),
		G:           func(q float64) float64 { return math.Sqrt2 / 3 * math.Pow(q, 1.5) },
		NumInputs:   nf * nf / 2,
		NumOutputs:  nf * nf * nf / 6,
	}
}

// LowerBound is the closed-form dense bound r ≥ n/√(2q) of Section 4.1.
func LowerBound(n int, q float64) float64 {
	return float64(n) / math.Sqrt(2*q)
}

// TargetQ rescales the reducer size for a sparse data graph with m of the
// C(n,2) possible edges (Section 4.2): to see an expected q real edges per
// reducer, a schema may assign qt = q·n(n-1)/(2m) possible edges.
func TargetQ(q float64, n, m int) float64 {
	return q * float64(n) * float64(n-1) / (2 * float64(m))
}

// SparseLowerBound is the Section 4.2 bound r = Ω(√(m/q)) for a random
// graph with m edges when reducers hold q actual edges.
func SparseLowerBound(m int, q float64) float64 {
	return math.Sqrt(float64(m) / q)
}

// MaxTrianglesBruteForce computes, by exhaustive search over all q-subsets
// of K_n's edges, the true maximum number of triangles whose edges all lie
// within a set of q edges — the quantity g(q) of Section 4.1 bounds by
// (√2/3)·q^{3/2} (Schank [20]). Exponential; intended for verifying the
// bound on tiny instances (n ≤ 5, q ≤ 7).
func MaxTrianglesBruteForce(n, q int) int {
	p := Problem{N: n}
	numEdges := p.NumInputs()
	if q > numEdges {
		q = numEdges
	}
	edges := make([]graphs.Edge, numEdges)
	for i := range edges {
		u, v := p.EdgeFromIndex(i)
		edges[i] = graphs.Edge{U: u, V: v}
	}
	best := 0
	chosen := make([]graphs.Edge, 0, q)
	var rec func(start, need int)
	rec = func(start, need int) {
		if need == 0 {
			g := graphs.New(n, chosen)
			if c := int(g.TriangleCount()); c > best {
				best = c
			}
			return
		}
		for i := start; i <= numEdges-need; i++ {
			chosen = append(chosen, edges[i])
			rec(i+1, need-1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec(0, q)
	return best
}

// PartitionSchema is the bucket-triple algorithm: nodes are hashed into k
// buckets and there is one reducer for every unordered triple (with
// repetition) of buckets; an edge is sent to the k reducers whose triple
// contains both endpoint buckets, so r = k exactly. A reducer's input is
// about 4.5·n²/k² possible edges, which makes r = k ≈ 3·n/√(2q): within a
// factor 3 of the Section 4.1 lower bound.
type PartitionSchema struct {
	N, K    int
	tripleN int
}

// NewPartitionSchema builds the schema for n nodes and k ≥ 1 buckets.
func NewPartitionSchema(n, k int) (*PartitionSchema, error) {
	if k < 1 {
		return nil, fmt.Errorf("triangle: need k >= 1, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("triangle: need n >= 1, got %d", n)
	}
	return &PartitionSchema{N: n, K: k, tripleN: k * (k + 1) * (k + 2) / 6}, nil
}

// Bucket is the node-to-bucket hash.
func (s *PartitionSchema) Bucket(u int) int { return u % s.K }

// tripleID maps a sorted bucket triple i ≤ j ≤ l to a dense reducer
// index: its rank among the sorted triples with repetition over [0,k).
// The triples with first coordinate < i number C(k+2,3) - C(k-i+2,3),
// those with first == i and second < j number C(k-i+1,2) - C(k-j+1,2),
// and l - j more precede it.
func (s *PartitionSchema) tripleID(i, j, l int) int {
	a, b := s.K-i, s.K-j
	return s.tripleN - a*(a+1)*(a+2)/6 + a*(a+1)/2 - b*(b+1)/2 + l - j
}

// cellOf is the cell of the sorted triple of buckets a, b and c. For a
// triangle's three buckets it is the one cell that emits the triangle
// under the exactly-once rule.
func (s *PartitionSchema) cellOf(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return s.tripleID(a, b, c)
}

// NumReducers implements core.MappingSchema: C(k+2,3) bucket triples.
func (s *PartitionSchema) NumReducers() int { return s.tripleN }

// Assign implements core.MappingSchema.
func (s *PartitionSchema) Assign(in int) []int {
	p := Problem{N: s.N}
	u, v := p.EdgeFromIndex(in)
	return s.reducersForEdge(u, v)
}

func (s *PartitionSchema) reducersForEdge(u, v int) []int {
	rs := make([]int, 0, s.K)
	s.forEachCell(u, v, func(cell int) { rs = append(rs, cell) })
	return rs
}

// forEachCell calls fn with the k reducer cells of edge {u, v}, those of
// the bucket triples {bu, bv, w} for w = 0..k-1. They are distinct, since
// distinct w give distinct multisets.
func (s *PartitionSchema) forEachCell(u, v int, fn func(cell int)) {
	bu, bv := s.Bucket(u), s.Bucket(v)
	for w := 0; w < s.K; w++ {
		fn(s.cellOf(bu, bv, w))
	}
}

var _ core.MappingSchema = (*PartitionSchema)(nil)

// Triangle is an output triple with U < V < W.
type Triangle struct{ U, V, W int }

// Result is the outcome of a distributed triangle run.
type Result struct {
	Triangles []Triangle
	Metrics   mr.Metrics
}

// Run executes the partition algorithm on a data graph, finding all
// triangles. Each triangle is produced exactly once: only the reducer
// whose bucket triple equals the triangle's own bucket multiset emits it.
func Run(s *PartitionSchema, g *graphs.Graph, cfg mr.Config) (Result, error) {
	tris, met, err := findTrianglesJob(s, cfg).Run(g.Edges)
	if err != nil {
		return Result{}, err
	}
	slices.SortFunc(tris, cmpTriangle)
	return Result{Triangles: tris, Metrics: met}, nil
}

func cmpTriangle(a, b Triangle) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
}

// Count runs the algorithm and returns only the number of triangles,
// aggregating per-reducer counts (a counting job communicates the same
// edges but returns one integer per reducer).
func Count(s *PartitionSchema, g *graphs.Graph, cfg mr.Config) (int64, mr.Metrics, error) {
	job := &mr.Job[graphs.Edge, int, graphs.Edge, int64]{
		Name: fmt.Sprintf("triangles-count(n=%d,k=%d)", s.N, s.K),
		Map: func(e graphs.Edge, emit func(int, graphs.Edge)) {
			s.forEachCell(e.U, e.V, func(cell int) { emit(cell, e) })
		},
		Reduce: func(cell int, edges []graphs.Edge, emit func(int64)) {
			var count int64
			s.localTriangles(cell, edges, func(_, _, _ int) { count++ })
			emit(count)
		},
		Config: cfg,
	}
	counts, met, err := job.Run(g.Edges)
	if err != nil {
		return 0, met, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, met, nil
}
