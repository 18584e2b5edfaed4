package subgraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/mr"
	"repro/internal/relation"
)

func TestInAlonClassExamples(t *testing.T) {
	tests := []struct {
		name string
		g    *graphs.Graph
		want bool
	}{
		// Section 5.1: every cycle, every graph with a perfect matching,
		// and every complete graph is in the Alon class; odd paths
		// (odd number of edges) are in, even paths are not.
		{"single edge", graphs.Path(2), true},
		{"triangle", graphs.Cycle(3), true},
		{"4-cycle", graphs.Cycle(4), true},
		{"5-cycle", graphs.Cycle(5), true},
		{"K4", graphs.Complete(4), true},
		{"K5", graphs.Complete(5), true},
		{"path 2 edges (3 nodes)", graphs.Path(3), false},
		{"path 3 edges (4 nodes)", graphs.Path(4), true},
		{"path 4 edges (5 nodes)", graphs.Path(5), false},
		{"path 5 edges (6 nodes)", graphs.Path(6), true},
		{"star 3 leaves", graphs.Star(4), false},
		{"empty", graphs.New(0, nil), true},
	}
	for _, tc := range tests {
		if got := InAlonClass(tc.g); got != tc.want {
			t.Errorf("InAlonClass(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHamiltonianCycleHelper(t *testing.T) {
	g := graphs.Cycle(5)
	if !hasHamiltonianCycle(g, []int{0, 1, 2, 3, 4}) {
		t.Error("C5 should have a Hamiltonian cycle on all nodes")
	}
	if hasHamiltonianCycle(g, []int{0, 1, 2}) {
		t.Error("a sub-path of C5 has no induced Hamiltonian cycle")
	}
	if hasHamiltonianCycle(g, []int{0, 1}) {
		t.Error("two nodes cannot have a Hamiltonian cycle")
	}
}

func TestAlonBoundsShapes(t *testing.T) {
	// Triangles: s = 3 ⇒ (n/√q)^1, matching Section 4's n/√(2q) shape.
	if AlonLowerBound(100, 3, 100) != 10 {
		t.Errorf("AlonLowerBound(100,3,100) = %v, want 10", AlonLowerBound(100, 3, 100))
	}
	// s = 4 squares the ratio.
	if AlonLowerBound(100, 4, 100) != 100 {
		t.Errorf("AlonLowerBound(100,4,100) = %v, want 100", AlonLowerBound(100, 4, 100))
	}
	if EdgeLowerBound(10000, 3, 100) != 10 {
		t.Errorf("EdgeLowerBound(10000,3,100) = %v, want 10", EdgeLowerBound(10000, 3, 100))
	}
	if MaxInstancesAlon(100, 4) != 10000 {
		t.Errorf("MaxInstancesAlon(100,4) = %v, want 100²", MaxInstancesAlon(100, 4))
	}
}

func TestAlonTheoremEmpirically(t *testing.T) {
	// Embeddings of an Alon-class sample in a graph with m edges is
	// O(m^{s/2}); check the triangle (s=3, constant ≤ some small c) on
	// random graphs.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		data := graphs.GNM(20, 60, rng)
		count := CountEmbeddings(graphs.Cycle(3), data)
		bound := MaxInstancesAlon(float64(data.M()), 3)
		// Embeddings count ordered triples: 6 per triangle; allow the
		// constant.
		if float64(count) > 6*bound {
			t.Errorf("trial %d: %d embeddings exceed 6·m^1.5 = %v", trial, count, 6*bound)
		}
	}
}

func TestTwoPathProblemCounts(t *testing.T) {
	p := NewTwoPathProblem(5)
	if p.NumInputs() != 10 {
		t.Errorf("NumInputs = %d, want 10", p.NumInputs())
	}
	if p.NumOutputs() != 30 { // 3·C(5,3) = 30
		t.Errorf("NumOutputs = %d, want 30", p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		if len(inputs) != 2 || inputs[0] == inputs[1] {
			t.Fatalf("bad output inputs %v", inputs)
		}
		count++
		return true
	})
	if count != 30 {
		t.Errorf("enumerated %d, want 30", count)
	}
}

func TestTwoPathLowerBoundClamp(t *testing.T) {
	if TwoPathLowerBound(100, 50) != 4 {
		t.Errorf("2n/q = 4 expected, got %v", TwoPathLowerBound(100, 50))
	}
	if TwoPathLowerBound(100, 1000) != 1 {
		t.Errorf("bound should clamp to 1 for q > 2n, got %v", TwoPathLowerBound(100, 1000))
	}
}

func TestTwoPathSchemaValidAndReplication(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		n := 12
		s, err := NewTwoPathSchema(n, k)
		if err != nil {
			t.Fatal(err)
		}
		p := NewTwoPathProblem(n)
		if err := core.Validate(p, s, 0); err != nil {
			t.Errorf("k=%d: coverage fails: %v", k, err)
		}
		st := core.Measure(p, s)
		if st.ReplicationRate != float64(s.Replication()) {
			t.Errorf("k=%d: replication %v, want %d", k, st.ReplicationRate, s.Replication())
		}
	}
}

func TestTwoPathSchemaRejectsBadParams(t *testing.T) {
	if _, err := NewTwoPathSchema(10, 0); err == nil {
		t.Error("k=0 rejected")
	}
	if _, err := NewTwoPathSchema(1, 1); err == nil {
		t.Error("n=1 rejected")
	}
}

func TestTwoPathReducerLoadNearPrediction(t *testing.T) {
	n, k := 24, 4
	s, err := NewTwoPathSchema(n, k)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Measure(NewTwoPathProblem(n), s)
	pred := 2 * float64(n) / float64(k) // about 2n/k edges per reducer
	if float64(st.MaxReducerLoad) > 1.5*pred || float64(st.MaxReducerLoad) < 0.5*pred {
		t.Errorf("max load %d far from prediction %v", st.MaxReducerLoad, pred)
	}
}

func twoPathsAsStructs(g *graphs.Graph) []TwoPath {
	var out []TwoPath
	for _, p := range g.TwoPaths() {
		out = append(out, TwoPath{Mid: p[0], V: p[1], W: p[2]})
	}
	return out
}

func TestRunTwoPathsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graphs.GNM(20, 70, rng)
	want := twoPathsAsStructs(g)
	sortTwoPaths(want)
	for _, k := range []int{1, 2, 3, 5} {
		s, err := NewTwoPathSchema(20, k)
		if err != nil {
			t.Fatal(err)
		}
		got, met, err := RunTwoPaths(s, g, mr.Config{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: found %d 2-paths, want %d", k, len(got), len(want))
		}
		if r := met.ReplicationRate(); r != float64(s.Replication()) {
			t.Errorf("k=%d: measured replication %v, want %d", k, r, s.Replication())
		}
	}
}

func sortTwoPaths(ps []TwoPath) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			a, b := ps[j-1], ps[j]
			if b.Mid < a.Mid || (b.Mid == a.Mid && (b.V < a.V || (b.V == a.V && b.W < a.W))) {
				ps[j-1], ps[j] = ps[j], ps[j-1]
			} else {
				break
			}
		}
	}
}

func TestRunTwoPathsCompleteGraph(t *testing.T) {
	n := 10
	g := graphs.Complete(n)
	s, err := NewTwoPathSchema(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunTwoPaths(s, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != g.TwoPathCount() {
		t.Errorf("found %d, want %d", len(got), g.TwoPathCount())
	}
}

func TestRunTwoPathsStarSkew(t *testing.T) {
	// All 2-paths run through the hub; the hash-pair split divides the
	// hub's work across C(k,2) reducers.
	g := graphs.Star(16)
	s, err := NewTwoPathSchema(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := RunTwoPaths(s, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != g.TwoPathCount() {
		t.Errorf("found %d, want %d", len(got), g.TwoPathCount())
	}
	// No reducer may hold all 15 hub edges: the split must spread them.
	if met.MaxReducerInput >= 15 {
		t.Errorf("max reducer input %d; hash split should cap below full hub degree", met.MaxReducerInput)
	}
}

func TestMatcherTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := graphs.GNM(18, 60, rng)
	m, err := NewMatcher(graphs.Cycle(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	embs, met, err := m.Run(data, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := CountEmbeddings(graphs.Cycle(3), data)
	if int64(len(embs)) != want {
		t.Errorf("matcher found %d embeddings, serial %d", len(embs), want)
	}
	// 6 ordered embeddings per triangle.
	if want != 6*data.TriangleCount() {
		t.Errorf("embedding count %d != 6·triangles %d", want, 6*data.TriangleCount())
	}
	if met.PairsEmitted == 0 {
		t.Error("no communication recorded")
	}
}

func TestMatcherSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := graphs.GNM(14, 40, rng)
	m, err := NewMatcher(graphs.Cycle(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	embs, _, err := m.Run(data, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := CountEmbeddings(graphs.Cycle(4), data)
	if int64(len(embs)) != want {
		t.Errorf("matcher found %d 4-cycle embeddings, serial %d", len(embs), want)
	}
}

func TestMatcherNoDuplicates(t *testing.T) {
	data := graphs.Complete(8)
	m, err := NewMatcher(graphs.Cycle(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	embs, _, err := m.Run(data, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range embs {
		k := relation.Tuple(e).Key()
		if seen[k] {
			t.Fatalf("embedding %v produced twice", e)
		}
		seen[k] = true
	}
	if int64(len(embs)) != CountEmbeddings(graphs.Cycle(3), data) {
		t.Errorf("count mismatch")
	}
}

func TestMatcherRejectsBadParams(t *testing.T) {
	if _, err := NewMatcher(graphs.New(3, nil), 2); err == nil {
		t.Error("edgeless sample rejected")
	}
	if _, err := NewMatcher(graphs.Cycle(3), 0); err == nil {
		t.Error("b=0 rejected")
	}
}

// Property: the exactly-once rule partitions responsibility — for every
// pair of distinct end buckets and every cell pair, exactly one cell
// produces it.
func TestPropertyTwoPathProduceRule(t *testing.T) {
	s, err := NewTwoPathSchema(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(hvRaw, hwRaw uint8) bool {
		hv, hw := int(hvRaw)%5, int(hwRaw)%5
		producers := 0
		for pair := 0; pair < s.pairsPerNode(); pair++ {
			if s.shouldProduce(pair, hv, hw) {
				producers++
			}
		}
		return producers == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every embedding's cell is among the cells of each of its
// edges (the coverage witness for the matcher).
func TestPropertyMatcherCoverage(t *testing.T) {
	m, err := NewMatcher(graphs.Cycle(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		u, v, w := int(a)%30, int(b)%30, int(c)%30
		if u == v || v == w || u == w {
			return true
		}
		emb := []int{u, v, w}
		cell := m.cellOfEmbedding(emb)
		// The triangle's edges: (0,1), (1,2), (0,2) in the sample.
		pairs := [][2]int{{u, v}, {v, w}, {u, w}}
		for _, p := range pairs {
			found := false
			for _, cc := range m.cellsForEdge(p[0], p[1]) {
				if cc == cell {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMatcherRefusesNodesItCannotPack pins that Run returns an error, not
// wrong embeddings, for a node an embedding cannot hold: each node id is
// packed into three bytes, so 2^24 would wrap to 0. A node outside the
// graph, such as −1, is refused too.
func TestMatcherRefusesNodesItCannotPack(t *testing.T) {
	m, err := NewMatcher(graphs.Cycle(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	tri := []graphs.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	for _, data := range []*graphs.Graph{
		graphs.New(relation.MaxValue+1, append(tri, graphs.Edge{U: 1, V: relation.MaxValue})),
		{N: 3, Edges: append(tri, graphs.Edge{U: -1, V: 2})},
	} {
		if embs, _, err := m.Run(data, mr.Config{}); err == nil {
			t.Errorf("N=%d, edges %v: Run = %v, nil error; want an error", data.N, data.Edges, embs)
		}
	}
}
