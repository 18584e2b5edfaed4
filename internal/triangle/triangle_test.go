package triangle

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/mr"
)

func TestEdgeIndexRoundTrip(t *testing.T) {
	p := NewProblem(10)
	idx := 0
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if got := p.EdgeIndex(u, v); got != idx {
				t.Fatalf("EdgeIndex(%d,%d) = %d, want %d", u, v, got, idx)
			}
			gu, gv := p.EdgeFromIndex(idx)
			if gu != u || gv != v {
				t.Fatalf("EdgeFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
	if idx != p.NumInputs() {
		t.Errorf("enumerated %d edges, NumInputs = %d", idx, p.NumInputs())
	}
	// Unordered: EdgeIndex(v,u) == EdgeIndex(u,v).
	if p.EdgeIndex(7, 3) != p.EdgeIndex(3, 7) {
		t.Error("EdgeIndex not symmetric")
	}
}

func TestProblemCounts(t *testing.T) {
	p := NewProblem(6)
	if p.NumInputs() != 15 {
		t.Errorf("NumInputs = %d, want 15", p.NumInputs())
	}
	if p.NumOutputs() != 20 {
		t.Errorf("NumOutputs = %d, want 20", p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		if len(inputs) != 3 {
			t.Fatalf("output with %d inputs, want 3", len(inputs))
		}
		count++
		return true
	})
	if count != 20 {
		t.Errorf("enumerated %d outputs, want 20", count)
	}
}

func TestRecipeClosedForm(t *testing.T) {
	n := 100
	rc := Recipe(n)
	for _, q := range []float64{50, 200, 5000} {
		want := LowerBound(n, q)
		if got := rc.LowerBound(q); math.Abs(got-want)/want > 1e-9 && want >= 1 {
			t.Errorf("recipe(%v) = %v, closed form = %v", q, got, want)
		}
	}
	if !rc.GOverQMonotone(1, 1e6, 100) {
		t.Error("g(q)/q = (√2/3)√q must be monotone increasing")
	}
}

func TestSparseRescaling(t *testing.T) {
	// With all edges present (m = C(n,2)), TargetQ is the identity and the
	// sparse bound equals the dense bound.
	n := 50
	m := n * (n - 1) / 2
	q := 100.0
	if got := TargetQ(q, n, m); math.Abs(got-q) > 1e-9 {
		t.Errorf("TargetQ with complete graph = %v, want %v", got, q)
	}
	dense := LowerBound(n, TargetQ(q, n, m))
	sparse := SparseLowerBound(m, q)
	if math.Abs(dense-sparse)/sparse > 0.05 {
		t.Errorf("dense bound %v and sparse bound %v should agree for complete graphs", dense, sparse)
	}
}

func TestPartitionSchemaTripleIDs(t *testing.T) {
	s, err := NewPartitionSchema(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	// All C(k+2,3) = 20 sorted triples must get distinct ids in [0,20),
	// numbered in lexicographic order.
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			for l := j; l < 4; l++ {
				id := s.tripleID(i, j, l)
				if id < 0 || id >= s.NumReducers() {
					t.Fatalf("tripleID(%d,%d,%d) = %d out of range", i, j, l, id)
				}
				if seen[id] {
					t.Fatalf("tripleID(%d,%d,%d) = %d collides", i, j, l, id)
				}
				if id != len(seen) {
					t.Fatalf("tripleID(%d,%d,%d) = %d, want the lexicographic rank %d", i, j, l, id, len(seen))
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != 20 {
		t.Errorf("distinct ids = %d, want 20", len(seen))
	}
}

func TestPartitionSchemaValidAndReplication(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		n := 15
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProblem(n)
		if err := core.Validate(p, s, 0); err != nil {
			t.Errorf("k=%d: coverage fails: %v", k, err)
		}
		st := core.Measure(p, s)
		if st.ReplicationRate != float64(k) {
			t.Errorf("k=%d: replication = %v, want exactly k", k, st.ReplicationRate)
		}
	}
}

func TestPartitionSchemaRejectsBadParams(t *testing.T) {
	if _, err := NewPartitionSchema(10, 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := NewPartitionSchema(0, 2); err == nil {
		t.Error("n=0 must be rejected")
	}
}

func TestRunCompleteGraph(t *testing.T) {
	n := 12
	g := graphs.Complete(n)
	s, err := NewPartitionSchema(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TriangleCount()
	if int64(len(res.Triangles)) != want {
		t.Errorf("found %d triangles, want %d", len(res.Triangles), want)
	}
	if r := res.Metrics.ReplicationRate(); r != 3 {
		t.Errorf("replication = %v, want 3", r)
	}
}

// TestRunSparseGraphMatchesSerial wants Run's sorted output to be the
// serial enumeration element for element: Run does not deduplicate, so a
// triangle emitted by two cells fails here.
func TestRunSparseGraphMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graphs.GNM(60, 400, rng)
	var want []Triangle
	for _, tr := range g.Triangles() {
		want = append(want, Triangle{tr[0], tr[1], tr[2]})
	}
	for _, k := range []int{1, 2, 4, 6} {
		s, err := NewPartitionSchema(60, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, g, mr.Config{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !slices.Equal(res.Triangles, want) {
			t.Errorf("k=%d: found %d triangles, serial %d; the lists differ", k, len(res.Triangles), len(want))
		}
	}
}

func TestCountMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graphs.GNM(50, 300, rng)
	s, err := NewPartitionSchema(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	count, met, err := Count(s, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if count != g.TriangleCount() {
		t.Errorf("Count = %d, want %d", count, g.TriangleCount())
	}
	if met.ReplicationRate() != 3 {
		t.Errorf("replication = %v, want 3", met.ReplicationRate())
	}
}

func TestRunSkewedStarGraph(t *testing.T) {
	// The star has a node of degree n-1 (the skew case of Section 1.4);
	// the algorithm must stay correct (zero triangles).
	g := graphs.Star(30)
	s, err := NewPartitionSchema(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) != 0 {
		t.Errorf("star graph has no triangles, found %d", len(res.Triangles))
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	g := graphs.Complete(10)
	s, err := NewPartitionSchema(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, g, mr.Config{FailureEveryN: 2, MaxRetries: 3, MapChunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Triangles)) != g.TriangleCount() {
		t.Errorf("with faults: found %d, want %d", len(res.Triangles), g.TriangleCount())
	}
}

func TestReplicationWithinConstantOfLowerBound(t *testing.T) {
	// For the complete instance, r = k while the bound at the realized q
	// is n/√(2q); the algorithm is within a small constant (≈3).
	n := 30
	p := NewProblem(n)
	for _, k := range []int{2, 3, 5} {
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			t.Fatal(err)
		}
		st := core.Measure(p, s)
		lb := LowerBound(n, float64(st.MaxReducerLoad))
		ratio := st.ReplicationRate / lb
		if ratio < 1 {
			t.Errorf("k=%d: replication %v below lower bound %v", k, st.ReplicationRate, lb)
		}
		if ratio > 3.5 {
			t.Errorf("k=%d: replication %v more than 3.5x the bound %v", k, st.ReplicationRate, lb)
		}
	}
}

// Property: every edge is sent to exactly k distinct reducers.
func TestPropertyEdgeReplicationIsK(t *testing.T) {
	f := func(uRaw, vRaw, kRaw uint8) bool {
		n := 20
		k := int(kRaw%6) + 1
		u, v := int(uRaw)%n, int(vRaw)%n
		if u == v {
			return true
		}
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			return false
		}
		rs := s.reducersForEdge(u, v)
		seen := make(map[int]bool)
		for _, r := range rs {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return len(rs) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every triangle is covered (some reducer receives all three
// edges), and the reducer named by the triangle's own bucket multiset is
// among the coverers — the witness that the exactly-once emission rule
// never suppresses a triangle. (Coverage need not be unique: when bucket
// values repeat, several triples contain both endpoints of all edges.)
func TestPropertyTriangleCoveredByOwnCell(t *testing.T) {
	f := func(a, b, c, kRaw uint8) bool {
		n := 25
		k := int(kRaw%5) + 1
		u, v, w := int(a)%n, int(b)%n, int(c)%n
		if u == v || v == w || u == w {
			return true
		}
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			return false
		}
		inCommon := func(x, y []int) map[int]bool {
			set := make(map[int]bool)
			for _, r := range x {
				set[r] = true
			}
			out := make(map[int]bool)
			for _, r := range y {
				if set[r] {
					out[r] = true
				}
			}
			return out
		}
		e1 := s.reducersForEdge(u, v)
		e2 := s.reducersForEdge(u, w)
		e3 := s.reducersForEdge(v, w)
		common := inCommon(e1, e2)
		shared := make(map[int]bool)
		for _, r := range e3 {
			if common[r] {
				shared[r] = true
			}
		}
		if len(shared) == 0 {
			return false
		}
		tb := [3]int{s.Bucket(u), s.Bucket(v), s.Bucket(w)}
		sort.Ints(tb[:])
		return shared[s.tripleID(tb[0], tb[1], tb[2])]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestG4BruteForce verifies the Section 4.1 coverage bound exhaustively
// on tiny instances: no q edges contain more than (√2/3)·q^{3/2}
// triangles, and complete subgraphs achieve it when q = C(k,2).
func TestG4BruteForce(t *testing.T) {
	for _, n := range []int{4, 5} {
		maxQ := 7
		if e := n * (n - 1) / 2; e < maxQ {
			maxQ = e
		}
		for q := 1; q <= maxQ; q++ {
			got := MaxTrianglesBruteForce(n, q)
			bound := Recipe(n).G(float64(q))
			if float64(got) > bound+1e-9 {
				t.Errorf("n=%d q=%d: %d triangles exceed g(q) = %.3f", n, q, got, bound)
			}
		}
	}
	// q = C(3,2) = 3 edges: exactly one triangle, and g(3) = (√2/3)·3^1.5 ≈ 2.45 ≥ 1.
	if got := MaxTrianglesBruteForce(4, 3); got != 1 {
		t.Errorf("3 edges can close exactly 1 triangle, got %d", got)
	}
	// q = C(4,2) = 6 edges: K4 gives 4 triangles; g(6) ≈ 6.93 ≥ 4.
	if got := MaxTrianglesBruteForce(5, 6); got != 4 {
		t.Errorf("6 edges: K4 closes 4 triangles, got %d", got)
	}
}
