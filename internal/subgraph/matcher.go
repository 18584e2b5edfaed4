package subgraph

import (
	"fmt"
	"sort"

	"repro/internal/graphs"
	"repro/internal/mr"
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

// ReplicationPerEdge is the number of (cell, edge) pairs one data edge
// generates: for each of the sample's edges and 2 orientations, b^{s-2}
// cells (before deduplication of coinciding cells).
func (m *Matcher) ReplicationPerEdge() int {
	free := m.NumReducers() / (m.B * m.B)
	return 2 * m.Sample.M() * free
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
	sort.Ints(out)
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

// Automorphisms counts the automorphisms of a sample graph (embeddings
// of the graph into itself). Section 5.2 notes that the number of
// *instances* of a sample graph S differs from the number of node tuples
// by the symmetries of S: instances = embeddings / |Aut(S)|, and there
// are at least n^s/s! distinct instance sets. Classic values: triangle 6,
// 4-cycle 8, path of 3 nodes 2, K4 24.
func Automorphisms(sample *graphs.Graph) int64 {
	var count int64
	emb := make([]int, sample.N)
	used := make([]bool, sample.N)
	var rec func(i int)
	rec = func(i int) {
		if i == sample.N {
			count++
			return
		}
		for u := 0; u < sample.N; u++ {
			if used[u] {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				// An automorphism preserves both edges and non-edges.
				if sample.HasEdge(i, j) != sample.HasEdge(u, emb[j]) {
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

// InstanceCount converts an embedding count into an instance count by
// dividing out the sample's automorphisms.
func InstanceCount(sample, data *graphs.Graph) int64 {
	aut := Automorphisms(sample)
	if aut == 0 {
		return 0
	}
	return CountEmbeddings(sample, data) / aut
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
// (each exactly once) and the round metrics.
func (m *Matcher) Run(data *graphs.Graph, cfg mr.Config) ([][]int, mr.Metrics, error) {
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
					emit(encodeEmbedding(emb))
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
		embs[i] = decodeEmbedding(o)
	}
	sort.Slice(embs, func(i, j int) bool { return lessIntSlice(embs[i], embs[j]) })
	return embs, met, nil
}

func encodeEmbedding(emb []int) string {
	b := make([]byte, 0, len(emb)*3)
	for _, v := range emb {
		b = append(b, byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

func decodeEmbedding(s string) []int {
	emb := make([]int, len(s)/3)
	for i := range emb {
		emb[i] = int(s[3*i])<<16 | int(s[3*i+1])<<8 | int(s[3*i+2])
	}
	return emb
}

func lessIntSlice(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
