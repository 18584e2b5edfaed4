// Package catalog describes each of the paper's shared problem families
// once: its settings, the Section 2 model and tradeoff curve r ≥ f(q),
// the rule that realises a reducer size q as schema parameters, a seeded
// run, and a small complete instance to validate. cmd/mrplan,
// cmd/mrtrace, cmd/mrbounds and the end-to-end test iterate Families.
package catalog

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/hamming"
	"repro/internal/matmul"
	"repro/internal/mr"
	"repro/internal/subgraph"
	"repro/internal/triangle"
)

// Setting is one named integer setting of a family: an instance size or
// sample, or a schema parameter.
type Setting struct {
	Name, Usage string
	// Default is the runnable size cmd/mrtrace and cmd/mrplan start from.
	Default int
	// Min and Max bound the legal values; Max 0 means no upper limit.
	Min, Max int
}

// Check rejects v outside the setting's legal range.
func (s Setting) Check(v int) error {
	switch {
	case s.Max > 0 && (v < s.Min || v > s.Max):
		return fmt.Errorf("need %d <= %s <= %d, got %d", s.Min, s.Name, s.Max, v)
	case v < s.Min:
		return fmt.Errorf("need %s >= %d, got %d", s.Name, s.Min, v)
	}
	return nil
}

// Params holds setting values by name.
type Params map[string]int

// Family is one problem family of the paper.
type Family struct {
	// Name is the family's -problem value.
	Name string
	// Instance holds the instance settings; Instance[0] is the size n the
	// model functions take. Schema holds the schema parameters.
	Instance, Schema []Setting

	Problem   func(n int) core.Problem
	NewSchema func(n int, p Params) (core.MappingSchema, error)
	Recipe    func(n int) core.Recipe
	// Curve is the closed-form tradeoff f(q) the planner prices, over the
	// reducer sizes QRange(n).
	Curve  func(n int, q float64) float64
	QRange func(n int) (lo, hi float64)
	// Recommend realises reducer size q: the schema parameters and the
	// sentence cmd/mrplan prints for them.
	Recommend func(n int, q float64) (Params, string)
	// Run generates a seeded instance from p's instance settings and
	// executes it with p's schema parameters, returning the rounds in
	// execution order.
	Run func(p Params, seed int64, cfg mr.Config) ([]mr.RoundMetrics, error)

	// Small is a small complete instance, Validate the schema parameters
	// exhaustively checked on it, and Row names one such check.
	Small    Params
	Validate []Params
	Row      func(n int, p Params) string
}

// Size is the instance-size setting.
func (f Family) Size() Setting { return f.Instance[0] }

// Settings lists the instance settings, then the schema parameters.
func (f Family) Settings() []Setting {
	return append(append([]Setting(nil), f.Instance...), f.Schema...)
}

// SizeLimit is the reducer size q schema s promises, for core.Validate:
// its ReducerSize, or 0 (coverage only) when its loads vary by bucket.
func SizeLimit(s core.MappingSchema) int {
	if sized, ok := s.(interface{ ReducerSize() int }); ok {
		return sized.ReducerSize()
	}
	return 0
}

// Names lists the families' names in catalogue order.
func Names() []string {
	names := make([]string, len(Families))
	for i, f := range Families {
		names[i] = f.Name
	}
	return names
}

// Lookup finds a family by name.
func Lookup(name string) (Family, error) {
	for _, f := range Families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("unknown problem %q (want %s)", name, strings.Join(Names(), ", "))
}

// Flags registers on fs, once per name, the settings each family exposes
// through pick. The returned function, called after parsing, finds the
// named family and collects the values of its picked settings. A value
// out of its setting's range, or a flag set on the command line that the
// family does not take, is an error.
func Flags(fs *flag.FlagSet, pick func(Family) []Setting) func(name string) (Family, Params, error) {
	vals := map[string]*int{}
	for _, f := range Families {
		for _, s := range pick(f) {
			if vals[s.Name] == nil {
				vals[s.Name] = fs.Int(s.Name, s.Default, s.Usage)
			}
		}
	}
	return func(name string) (Family, Params, error) {
		f, err := Lookup(name)
		if err != nil {
			return Family{}, nil, err
		}
		p := Params{}
		for _, s := range pick(f) {
			if p[s.Name] = *vals[s.Name]; err == nil {
				err = s.Check(p[s.Name])
			}
		}
		fs.Visit(func(fl *flag.Flag) {
			if _, ok := p[fl.Name]; !ok && vals[fl.Name] != nil && err == nil {
				err = fmt.Errorf("-%s does not apply to -problem %s", fl.Name, name)
			}
		})
		return f, p, err
	}
}

// The settings more than one family shares.
var (
	nodes = func(min int) Setting {
		return Setting{Name: "nodes", Usage: "graph nodes n (triangle/twopaths)", Default: 300, Min: min}
	}
	edges   = Setting{Name: "edges", Usage: "graph edges (triangle/twopaths)", Default: 1500}
	buckets = Setting{Name: "k", Usage: "buckets per dimension k (triangle/twopaths)", Default: 4, Min: 1}
)

// Families is the catalogue: Hamming Splitting (Section 3.3), triangle
// partition (Section 4), 2-paths (Section 5.4) and matrix multiplication
// (Section 6.3).
var Families = []Family{
	{
		Name: "hamming",
		Instance: []Setting{
			{Name: "bits", Usage: "string length b (hamming)", Default: 14, Min: 1, Max: 62},
			{Name: "inputs", Usage: "input sample size (hamming)", Default: 4096, Min: 1},
		},
		Schema:    []Setting{{Name: "c", Usage: "segments c for the Splitting algorithm (hamming)", Default: 2, Min: 1}},
		Problem:   func(b int) core.Problem { return hamming.NewProblem(b) },
		NewSchema: func(b int, p Params) (core.MappingSchema, error) { return hamming.NewSplittingSchema(b, p["c"]) },
		Recipe:    hamming.Recipe,
		Curve:     hamming.LowerBound,
		QRange:    func(b int) (float64, float64) { return 2, math.Exp2(float64(b)) },
		Recommend: func(b int, q float64) (Params, string) {
			c := min(b, max(1, int(math.Round(float64(b)/math.Log2(q)))))
			for b%c != 0 { // snap up to a divisor of b
				c++
			}
			return Params{"c": c}, fmt.Sprintf("Splitting with c=%d segments (q = 2^%d, r = %d)", c, b/c, c)
		},
		Run: func(p Params, seed int64, cfg mr.Config) ([]mr.RoundMetrics, error) {
			s, err := hamming.NewSplittingSchema(p["bits"], p["c"])
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			in := make([]uint64, p["inputs"])
			for i := range in {
				in[i] = rng.Uint64() & (1<<uint(p["bits"]) - 1)
			}
			_, met, err := hamming.RunSplitting(s, in, cfg)
			return []mr.RoundMetrics{{Name: "hamming-splitting", Metrics: met}}, err
		},
		Small:    Params{"bits": 10, "inputs": 1 << 10},
		Validate: []Params{{"c": 1}, {"c": 2}, {"c": 5}},
		Row:      func(b int, p Params) string { return fmt.Sprintf("hamming splitting b=%d c=%d", b, p["c"]) },
	},
	{
		Name:      "triangle",
		Instance:  []Setting{nodes(3), edges},
		Schema:    []Setting{buckets},
		Problem:   func(n int) core.Problem { return triangle.NewProblem(n) },
		NewSchema: func(n int, p Params) (core.MappingSchema, error) { return triangle.NewPartitionSchema(n, p["k"]) },
		Recipe:    triangle.Recipe,
		Curve:     triangle.LowerBound,
		QRange:    func(n int) (float64, float64) { return 3, float64(n) * float64(n-1) / 2 },
		Recommend: func(n int, q float64) (Params, string) {
			k := max(1, int(math.Round(3*float64(n)/math.Sqrt(2*q))))
			return Params{"k": k}, fmt.Sprintf("bucket-triple partition with k=%d (r = %d)", k, k)
		},
		Run: func(p Params, seed int64, cfg mr.Config) ([]mr.RoundMetrics, error) {
			s, err := triangle.NewPartitionSchema(p["nodes"], p["k"])
			if err != nil {
				return nil, err
			}
			g := graphs.GNM(p["nodes"], p["edges"], rand.New(rand.NewSource(seed)))
			res, err := triangle.Run(s, g, cfg)
			return []mr.RoundMetrics{{Name: "triangle-partition", Metrics: res.Metrics}}, err
		},
		Small:    Params{"nodes": 18, "edges": 18 * 17 / 2},
		Validate: []Params{{"k": 2}, {"k": 4}},
		Row:      func(n int, p Params) string { return fmt.Sprintf("triangle partition n=%d k=%d", n, p["k"]) },
	},
	{
		Name:      "twopaths",
		Instance:  []Setting{nodes(2), edges},
		Schema:    []Setting{buckets},
		Problem:   func(n int) core.Problem { return subgraph.NewTwoPathProblem(n) },
		NewSchema: func(n int, p Params) (core.MappingSchema, error) { return subgraph.NewTwoPathSchema(n, p["k"]) },
		Recipe:    subgraph.TwoPathRecipe,
		Curve:     subgraph.TwoPathLowerBound,
		QRange:    func(n int) (float64, float64) { return 2, float64(n) * float64(n-1) / 2 },
		Recommend: func(n int, q float64) (Params, string) {
			k := max(1, int(math.Round(2*float64(n)/q)))
			r := (&subgraph.TwoPathSchema{N: n, K: k}).Replication()
			return Params{"k": k}, fmt.Sprintf("[u,{i,j}] hash schema with k=%d buckets (r = %d)", k, r)
		},
		Run: func(p Params, seed int64, cfg mr.Config) ([]mr.RoundMetrics, error) {
			s, err := subgraph.NewTwoPathSchema(p["nodes"], p["k"])
			if err != nil {
				return nil, err
			}
			g := graphs.GNM(p["nodes"], p["edges"], rand.New(rand.NewSource(seed)))
			_, met, err := subgraph.RunTwoPaths(s, g, cfg)
			return []mr.RoundMetrics{{Name: "twopaths", Metrics: met}}, err
		},
		Small:    Params{"nodes": 18, "edges": 18 * 17 / 2},
		Validate: []Params{{"k": 1}, {"k": 3}},
		Row:      func(n int, p Params) string { return fmt.Sprintf("2-paths hash n=%d k=%d", n, p["k"]) },
	},
	{
		// The schema is the one-phase tiling with output block side s; the
		// run is the two-phase algorithm, which with t = n is that tiling
		// plus a summing round.
		Name:     "matmul",
		Instance: []Setting{{Name: "side", Usage: "matrix side n (matmul)", Default: 48, Min: 1}},
		Schema: []Setting{
			{Name: "s", Usage: "output block side s, must divide n (matmul)", Default: 8, Min: 1},
			{Name: "t", Usage: "inner block length t, must divide n (matmul)", Default: 8, Min: 1},
		},
		Problem:   func(n int) core.Problem { return matmul.NewProblem(n) },
		NewSchema: func(n int, p Params) (core.MappingSchema, error) { return matmul.NewOnePhaseSchema(n, p["s"]) },
		Recipe:    matmul.Recipe,
		Curve:     matmul.LowerBound,
		QRange:    func(n int) (float64, float64) { return float64(2 * n), float64(2 * n * n) },
		Recommend: func(n int, q float64) (Params, string) {
			s := max(1, int(math.Round(q/float64(2*n))))
			st, tt := matmul.OptimalST(q)
			return Params{"s": s, "t": n}, fmt.Sprintf(
				"1-phase tiling with s=%d (q = 2sn = %d, r = %.1f); for q < n² = %d prefer "+
					"the 2-phase algorithm with tiles s=%.0f, t=%.0f (%.3g vs %.3g pairs)",
				s, 2*s*n, float64(n)/float64(s), n*n,
				st, tt, matmul.TwoPhaseCommunication(n, q), matmul.OnePhaseCommunication(n, q))
		},
		Run: func(p Params, seed int64, cfg mr.Config) ([]mr.RoundMetrics, error) {
			n := p["side"]
			schema, err := matmul.NewTwoPhaseSchema(n, p["s"], p["t"])
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			_, pipe, err := matmul.RunTwoPhase(matmul.Random(n, n, rng), matmul.Random(n, n, rng), schema, cfg)
			if err != nil {
				return nil, err
			}
			return pipe.Rounds, nil
		},
		Small:    Params{"side": 8},
		Validate: []Params{{"s": 1}, {"s": 2}, {"s": 4}},
		Row:      func(n int, p Params) string { return fmt.Sprintf("matmul 1-phase n=%d s=%d", n, p["s"]) },
	},
}
