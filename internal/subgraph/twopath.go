package subgraph

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/mr"
	"repro/internal/triangle"
)

// TwoPathProblem is the paths-of-length-two problem of Section 5.4, the
// simplest sample graph outside the Alon class: inputs are the C(n,2)
// possible edges, outputs are the 3·C(n,3) two-paths v—u—w (three per node
// triple, one per choice of middle node u).
type TwoPathProblem struct {
	N int
}

// NewTwoPathProblem returns the 2-paths problem on n nodes.
func NewTwoPathProblem(n int) TwoPathProblem { return TwoPathProblem{N: n} }

// Name implements core.Problem.
func (p TwoPathProblem) Name() string { return fmt.Sprintf("2-paths(n=%d)", p.N) }

// NumInputs implements core.Problem: C(n,2) edges.
func (p TwoPathProblem) NumInputs() int { return p.N * (p.N - 1) / 2 }

// NumOutputs implements core.Problem: 3·C(n,3) ≈ n³/2.
func (p TwoPathProblem) NumOutputs() int { return p.N * (p.N - 1) * (p.N - 2) / 2 }

// ForEachOutput implements core.Problem: the 2-path v—u—w depends on the
// edges {u,v} and {u,w}.
func (p TwoPathProblem) ForEachOutput(fn func(inputs []int) bool) {
	tp := triangle.Problem{N: p.N}
	buf := make([]int, 2)
	for u := 0; u < p.N; u++ {
		for v := 0; v < p.N; v++ {
			if v == u {
				continue
			}
			for w := v + 1; w < p.N; w++ {
				if w == u {
					continue
				}
				buf[0] = tp.EdgeIndex(u, v)
				buf[1] = tp.EdgeIndex(u, w)
				if !fn(buf) {
					return
				}
			}
		}
	}
}

// TwoPathLowerBound is the Section 5.4.1 bound r ≥ 2n/q, clamped at the
// trivial bound 1 for q > 2n.
func TwoPathLowerBound(n int, q float64) float64 {
	r := 2 * float64(n) / q
	if r < 1 {
		return 1
	}
	return r
}

// TwoPathRecipe is the Section 5.4.1 recipe: g(q) = q²/2 (any two edges
// make at most one 2-path), |I| ≈ n²/2, |O| ≈ n³/2.
func TwoPathRecipe(n int) core.Recipe {
	nf := float64(n)
	return core.Recipe{
		ProblemName: fmt.Sprintf("2-paths(n=%d)", n),
		G:           func(q float64) float64 { return q * q / 2 },
		NumInputs:   nf * nf / 2,
		NumOutputs:  nf * nf * nf / 2,
	}
}

// TwoPathSchema is the Section 5.4.2 algorithm. For k = 1 it is the
// simple q = n case: one reducer per node u holding all edges incident to
// u, replication rate 2. For k ≥ 2, nodes are hashed into k buckets and
// the reducers are pairs [u, {i,j}] with i < j; the edge (a,b) is sent to
// the 2(k-1) reducers [b, {h(a), *}] and [a, {*, h(b)}].
type TwoPathSchema struct {
	N, K int
}

// NewTwoPathSchema builds the schema for n nodes and k ≥ 1 buckets.
func NewTwoPathSchema(n, k int) (*TwoPathSchema, error) {
	if k < 1 {
		return nil, fmt.Errorf("subgraph: need k >= 1, got %d", k)
	}
	if n < 2 {
		return nil, fmt.Errorf("subgraph: need n >= 2, got %d", n)
	}
	return &TwoPathSchema{N: n, K: k}, nil
}

// Bucket is the node hash.
func (s *TwoPathSchema) Bucket(u int) int { return u % s.K }

// pairsPerNode is C(k,2) for k ≥ 2, or 1 for the k = 1 special case.
func (s *TwoPathSchema) pairsPerNode() int {
	if s.K == 1 {
		return 1
	}
	return s.K * (s.K - 1) / 2
}

// pairID ranks the set {i,j}, i < j, among the C(k,2) bucket pairs.
func (s *TwoPathSchema) pairID(i, j int) int {
	// pairs (0,1),(0,2),...,(0,k-1),(1,2),...
	return i*s.K - i*(i+1)/2 + (j - i - 1)
}

// reducerID packs (node u, bucket pair) into a dense reducer index.
func (s *TwoPathSchema) reducerID(u, pair int) int { return u*s.pairsPerNode() + pair }

// NumReducers implements core.MappingSchema: n·C(k,2) (or n when k = 1).
func (s *TwoPathSchema) NumReducers() int { return s.N * s.pairsPerNode() }

// Assign implements core.MappingSchema.
func (s *TwoPathSchema) Assign(in int) []int {
	tp := triangle.Problem{N: s.N}
	a, b := tp.EdgeFromIndex(in)
	return s.reducersForEdge(a, b)
}

func (s *TwoPathSchema) reducersForEdge(a, b int) []int {
	if s.K == 1 {
		return []int{s.reducerID(a, 0), s.reducerID(b, 0)}
	}
	var rs []int
	seen := make(map[int]bool)
	add := func(mid, i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		id := s.reducerID(mid, s.pairID(i, j))
		if !seen[id] {
			seen[id] = true
			rs = append(rs, id)
		}
	}
	ha, hb := s.Bucket(a), s.Bucket(b)
	for x := 0; x < s.K; x++ {
		add(b, ha, x) // b may be the middle node; other end hashed to ha
		add(a, hb, x) // a may be the middle node
	}
	return rs
}

var _ core.MappingSchema = (*TwoPathSchema)(nil)

// Replication is the exact replication rate: 2 for k = 1, 2(k-1)
// otherwise.
func (s *TwoPathSchema) Replication() int {
	if s.K == 1 {
		return 2
	}
	return 2 * (s.K - 1)
}

// TwoPath is an output v—u—w with middle node Mid and ends V < W.
type TwoPath struct {
	Mid, V, W int
}

// shouldProduce is the exactly-once rule of Section 5.4.2: the reducer
// [u,{i,j}] produces v—u—w iff {h(v),h(w)} = {i,j}, or h(v) = h(w) = i
// and j = i+1 mod k.
func (s *TwoPathSchema) shouldProduce(pair int, hv, hw int) bool {
	if s.K == 1 {
		return true
	}
	// Decode pair back to (i, j).
	i, j := 0, 0
	id := pair
	for i = 0; i < s.K; i++ {
		row := s.K - i - 1
		if id < row {
			j = i + 1 + id
			break
		}
		id -= row
	}
	if hv > hw {
		hv, hw = hw, hv
	}
	if hv != hw {
		return hv == i && hw == j
	}
	// Equal buckets: the canonical cell pairs i = hv with its cyclic
	// successor.
	succ := (hv + 1) % s.K
	lo, hi := hv, succ
	if lo > hi {
		lo, hi = hi, lo
	}
	return i == lo && j == hi
}

// RunTwoPaths executes the Section 5.4.2 algorithm over a data graph,
// producing every 2-path exactly once.
func RunTwoPaths(s *TwoPathSchema, g *graphs.Graph, cfg mr.Config) ([]TwoPath, mr.Metrics, error) {
	type key struct {
		Mid  int
		Pair int
	}
	job := &mr.Job[graphs.Edge, key, int, TwoPath]{
		Name: fmt.Sprintf("two-paths(n=%d,k=%d)", s.N, s.K),
		Map: func(e graphs.Edge, emit func(key, int)) {
			for _, rid := range s.reducersForEdge(e.U, e.V) {
				mid := rid / s.pairsPerNode()
				pair := rid % s.pairsPerNode()
				other := e.U
				if mid == e.U {
					other = e.V
				}
				emit(key{mid, pair}, other)
			}
		},
		Reduce: func(k key, ends []int, emit func(TwoPath)) {
			sort.Ints(ends)
			for i := 0; i < len(ends); i++ {
				for j := i + 1; j < len(ends); j++ {
					v, w := ends[i], ends[j]
					if v == w {
						continue
					}
					if s.shouldProduce(k.Pair, s.Bucket(v), s.Bucket(w)) {
						emit(TwoPath{Mid: k.Mid, V: v, W: w})
					}
				}
			}
		},
		Config: cfg,
	}
	paths, met, err := job.Run(g.Edges)
	if err != nil {
		return nil, met, err
	}
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i], paths[j]
		if a.Mid != b.Mid {
			return a.Mid < b.Mid
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.W < b.W
	})
	return paths, met, nil
}
