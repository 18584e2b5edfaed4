package subgraph

import (
	"fmt"
	"slices"

	"repro/internal/graphs"
	"repro/internal/mr"
	"repro/internal/relation"
)

// Matcher finds all embeddings of a fixed sample graph in a data graph
// with one round of map-reduce, using a share b per sample node in the
// style of the subgraph-enumeration algorithm of [2]: the reducers form a
// b^s grid over the sample's s nodes; a data edge (u,v) is sent, for every
// sample edge (x,y) and both orientations, to all cells whose x and y
// coordinates match the endpoint hashes. Every embedding hashes to exactly
// one cell, which finds it and produces it there exactly once.
type Matcher struct {
	Sample *graphs.Graph
	B      int // share per sample node
}

// NewMatcher builds a matcher; the sample must have at least one edge.
func NewMatcher(sample *graphs.Graph, b int) (*Matcher, error) {
	if sample.M() == 0 {
		return nil, fmt.Errorf("subgraph: sample graph has no edges")
	}
	if b < 1 {
		return nil, fmt.Errorf("subgraph: need share b >= 1, got %d", b)
	}
	return &Matcher{Sample: sample, B: b}, nil
}

// NumReducers is b^s.
func (m *Matcher) NumReducers() int {
	p := 1
	for i := 0; i < m.Sample.N; i++ {
		p *= m.B
	}
	return p
}

// hash buckets a data node.
func (m *Matcher) hash(u int) int { return u % m.B }

// cellsForEdge enumerates the distinct cells receiving the data edge
// (u,v).
func (m *Matcher) cellsForEdge(u, v int) []int {
	s := m.Sample.N
	strides := make([]int, s)
	st := 1
	for i := s - 1; i >= 0; i-- {
		strides[i] = st
		st *= m.B
	}
	seen := make(map[int]bool)
	var out []int
	var addAll func(fixed map[int]int)
	addAll = func(fixed map[int]int) {
		cells := []int{0}
		for i := 0; i < s; i++ {
			var next []int
			if c, ok := fixed[i]; ok {
				for _, base := range cells {
					next = append(next, base+c*strides[i])
				}
			} else {
				for _, base := range cells {
					for c := 0; c < m.B; c++ {
						next = append(next, base+c*strides[i])
					}
				}
			}
			cells = next
		}
		for _, c := range cells {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, se := range m.Sample.Edges {
		addAll(map[int]int{se.U: m.hash(u), se.V: m.hash(v)})
		addAll(map[int]int{se.U: m.hash(v), se.V: m.hash(u)})
	}
	slices.Sort(out)
	return out
}

// cellOfEmbedding is the unique cell an embedding (sample node i → data
// node emb[i]) hashes to.
func (m *Matcher) cellOfEmbedding(emb []int) int {
	id := 0
	for i := 0; i < m.Sample.N; i++ {
		id = id*m.B + m.hash(emb[i])
	}
	return id
}

// Embeddings enumerates, serially, every injective mapping of the
// sample's nodes to data nodes that maps every sample edge to a data
// edge. It is the correctness baseline.
func Embeddings(sample, data *graphs.Graph) [][]int {
	var out [][]int
	emb := make([]int, sample.N)
	used := make(map[int]bool)
	var rec func(i int)
	rec = func(i int) {
		if i == sample.N {
			cp := make([]int, len(emb))
			copy(cp, emb)
			out = append(out, cp)
			return
		}
		for u := 0; u < data.N; u++ {
			if used[u] {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				if sample.HasEdge(i, j) && !data.HasEdge(u, emb[j]) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			emb[i] = u
			used[u] = true
			rec(i + 1)
			used[u] = false
		}
	}
	rec(0)
	return out
}

// CountEmbeddings is len(Embeddings) without materializing them.
func CountEmbeddings(sample, data *graphs.Graph) int64 {
	var count int64
	emb := make([]int, sample.N)
	used := make(map[int]bool)
	var rec func(i int)
	rec = func(i int) {
		if i == sample.N {
			count++
			return
		}
		for u := 0; u < data.N; u++ {
			if used[u] {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				if sample.HasEdge(i, j) && !data.HasEdge(u, emb[j]) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			emb[i] = u
			used[u] = true
			rec(i + 1)
			used[u] = false
		}
	}
	rec(0)
	return count
}

// Run executes the matcher over a data graph, returning all embeddings
// (each exactly once) and the round metrics. Embeddings travel as
// relation.Tuple Keys: more than relation.MaxValue nodes is an error.
func (m *Matcher) Run(data *graphs.Graph, cfg mr.Config) ([][]int, mr.Metrics, error) {
	if data.N > relation.MaxValue {
		return nil, mr.Metrics{}, fmt.Errorf("subgraph: data graph of %d nodes: at most %d fit an embedding", data.N, relation.MaxValue)
	}
	for _, e := range data.Edges {
		if min(e.U, e.V) < 0 || max(e.U, e.V) >= data.N {
			return nil, mr.Metrics{}, fmt.Errorf("subgraph: edge %v of a %d-node data graph", e, data.N)
		}
	}
	// Reducers on different goroutines all query m.Sample, whose adjacency
	// is built lazily on first use: build it before they can race on it.
	m.Sample.Adj(0)
	job := &mr.Job[graphs.Edge, int, graphs.Edge, string]{
		Name: fmt.Sprintf("sample-matcher(s=%d,b=%d)", m.Sample.N, m.B),
		Map: func(e graphs.Edge, emit func(int, graphs.Edge)) {
			for _, cell := range m.cellsForEdge(e.U, e.V) {
				emit(cell, e)
			}
		},
		Reduce: func(cell int, edges []graphs.Edge, emit func(string)) {
			local := graphs.New(data.N, edges)
			for _, emb := range Embeddings(m.Sample, local) {
				if m.cellOfEmbedding(emb) == cell {
					emit(relation.Tuple(emb).Key())
				}
			}
		},
		Config: cfg,
	}
	outs, met, err := job.Run(data.Edges)
	if err != nil {
		return nil, met, err
	}
	embs := make([][]int, len(outs))
	for i, o := range outs {
		embs[i] = relation.FromKey(o)
	}
	slices.SortFunc(embs, slices.Compare)
	return embs, met, nil
}
