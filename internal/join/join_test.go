package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mr"
	"repro/internal/relation"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestHypergraphFromChain(t *testing.T) {
	rels := relation.FullChain(3, 2)
	h := FromQuery(rels)
	if h.NumVars() != 4 {
		t.Errorf("vars = %d, want 4", h.NumVars())
	}
	if len(h.Edges) != 3 {
		t.Errorf("edges = %d, want 3", len(h.Edges))
	}
	// Edge i covers vars {i, i+1}.
	for i, e := range h.Edges {
		if len(e.Vars) != 2 || e.Vars[0] != i || e.Vars[1] != i+1 {
			t.Errorf("edge %d vars = %v, want [%d %d]", i, e.Vars, i, i+1)
		}
	}
}

func TestFractionalEdgeCoverChains(t *testing.T) {
	// Chains of N binary relations have ρ = ⌈(N+1)/2⌉.
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {6, 4}} {
		rels := relation.FullChain(tc.n, 2)
		rho, weights, err := FromQuery(rels).FractionalEdgeCover()
		if err != nil {
			t.Fatalf("N=%d: %v", tc.n, err)
		}
		if !approx(rho, tc.want) {
			t.Errorf("N=%d: ρ = %v, want %v", tc.n, rho, tc.want)
		}
		if len(weights) != tc.n {
			t.Errorf("N=%d: %d weights, want %d", tc.n, len(weights), tc.n)
		}
	}
}

func TestFractionalEdgeCoverTriangleQuery(t *testing.T) {
	// R(A,B) ⋈ S(B,C) ⋈ T(C,A): the triangle, ρ = 3/2.
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	u := relation.New("T", "C", "A")
	rho, _, err := FromQuery([]*relation.Relation{r, s, u}).FractionalEdgeCover()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rho, 1.5) {
		t.Errorf("triangle ρ = %v, want 1.5", rho)
	}
}

func TestFractionalEdgeCoverStar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fact, dims := relation.Star(3, 4, 10, 5, rng)
	query := append([]*relation.Relation{fact}, dims...)
	rho, _, err := FromQuery(query).FractionalEdgeCover()
	if err != nil {
		t.Fatal(err)
	}
	// Each Bi forces its dimension edge to 1; the fact attributes are then
	// covered, so ρ = N = 3 (Section 5.5.2's "ρ is equal to N").
	if !approx(rho, 3) {
		t.Errorf("star ρ = %v, want 3", rho)
	}
}

func TestFractionalEdgeCoverEmptyQuery(t *testing.T) {
	if _, _, err := (Hypergraph{}).FractionalEdgeCover(); err == nil {
		t.Error("empty query should error")
	}
}

func TestAGMBound(t *testing.T) {
	// Triangle with |R|=|S|=|T|=m: bound = m^{3/2}.
	got := AGMBound([]float64{100, 100, 100}, []float64{0.5, 0.5, 0.5})
	if !approx(got, 1000) {
		t.Errorf("AGM = %v, want 1000", got)
	}
}

func TestAGMBoundIsValidOnRandomJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		rels := randomChain(3, 6, 12, rng)
		h := FromQuery(rels)
		_, weights, err := h.FractionalEdgeCover()
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]float64, len(rels))
		for i, r := range rels {
			sizes[i] = float64(r.Size())
		}
		bound := AGMBound(sizes, weights)
		actual := float64(relation.MultiJoin(rels...).Size())
		if actual > bound+1e-6 {
			t.Errorf("trial %d: join size %v exceeds AGM bound %v", trial, actual, bound)
		}
	}
}

func TestLowerBoundForms(t *testing.T) {
	// Chain of 3 over domain n: m=4, ρ=2 ⇒ n²/q; ChainLowerBound gives
	// (n/√q)² — identical.
	n, q := 50.0, 100.0
	if !approx(LowerBound(n, 4, 2, q), ChainLowerBound(n, 3, q)) {
		t.Error("general bound and chain specialization disagree for N=3")
	}
	// Matmul-style: bound decreases in q.
	if LowerBound(n, 4, 2, 2*q) >= LowerBound(n, 4, 2, q) {
		t.Error("lower bound should decrease with q")
	}
}

func TestStarBoundsRelationship(t *testing.T) {
	// In the paper's self-consistent regime (f/p = (1-e)·q), redoing the
	// Section 5.5.2 substitution gives upper/lower = e^{-N} exactly: with
	// p = (Nd0/eq)^N and f = pq(1-e), the upper bound's numerator
	// simplifies to Nd0·(Nd0/eq)^{N-1}/e, which is e^{-N} times the lower
	// bound's numerator Nd0·(Nd0/q)^{N-1}. (The paper prints the constant
	// as e(1-e)/e^N — an algebra slip: the substitution above leaves no
	// e(1-e) factor, and the loop below checks e^{-N} numerically.) For
	// constant e this is a constant factor, which is the paper's claim.
	d0 := 1e3
	numDims := 3
	for _, e := range []float64{0.2, 0.5, 0.8} {
		for _, q := range []float64{2e4, 1e5} {
			nd := float64(numDims)
			p := math.Pow(nd*d0/(e*q), nd)
			f := p * q * (1 - e)
			ub := StarUpperBound(f, d0, numDims, p)
			lb := StarLowerBound(f, d0, numDims, q)
			if lb > ub+1e-9 {
				t.Errorf("e=%v q=%v: lower bound %v exceeds upper bound %v", e, q, lb, ub)
			}
			wantRatio := math.Pow(e, -nd)
			if math.Abs(ub/lb-wantRatio)/wantRatio > 1e-6 {
				t.Errorf("e=%v q=%v: ub/lb = %v, want e^-N = %v", e, q, ub/lb, wantRatio)
			}
		}
	}
}

func TestNewSharesValidation(t *testing.T) {
	rels := relation.FullChain(2, 2)
	if _, err := NewShares(rels, []int{2, 2}); err == nil {
		t.Error("3 vars need 3 shares; want error")
	}
	if _, err := NewShares(rels, []int{1, 0, 1}); err == nil {
		t.Error("share 0 must be rejected")
	}
	s, err := NewShares(rels, []int{1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumReducers() != 8 {
		t.Errorf("p = %d, want 8", s.NumReducers())
	}
}

func TestSharesReplication(t *testing.T) {
	// Chain of 3: vars A0..A3, shares (1, b, b, 1).
	rels := relation.FullChain(3, 4)
	s, err := NewShares(rels, []int{1, 3, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// R1(A0,A1) fixes A1 ⇒ replicated p/(1·3) = 3; R2 fixes A1,A2 ⇒ 1;
	// R3 fixes A2 ⇒ 3.
	if got := s.ReplicationOf(0); got != 3 {
		t.Errorf("ReplicationOf(R1) = %d, want 3", got)
	}
	if got := s.ReplicationOf(1); got != 1 {
		t.Errorf("ReplicationOf(R2) = %d, want 1", got)
	}
	if got := s.ReplicationOf(2); got != 3 {
		t.Errorf("ReplicationOf(R3) = %d, want 3", got)
	}
	wantComm := int64(16*3 + 16*1 + 16*3)
	if got := s.PredictedCommunication(); got != wantComm {
		t.Errorf("PredictedCommunication = %d, want %d", got, wantComm)
	}
}

func TestSharesRunMatchesSerialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rels := randomChain(3, 8, 40, rng)
	want := relation.MultiJoin(rels...)
	for _, share := range [][]int{
		{1, 1, 1, 1}, {1, 2, 2, 1}, {1, 4, 2, 1}, {2, 2, 2, 2},
	} {
		s, err := NewShares(rels, share)
		if err != nil {
			t.Fatal(err)
		}
		got, met, err := s.Run(mr.Config{})
		if err != nil {
			t.Fatalf("share %v: %v", share, err)
		}
		if !relation.Equal(got, want) {
			t.Errorf("share %v: result (%d tuples) differs from serial (%d)", share, got.Size(), want.Size())
		}
		// Measured communication equals the prediction exactly.
		if met.PairsEmitted != s.PredictedCommunication() {
			t.Errorf("share %v: pairs %d, predicted %d", share, met.PairsEmitted, s.PredictedCommunication())
		}
	}
}

func TestSharesRunMatchesSerialStar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fact, dims := relation.Star(2, 6, 60, 12, rng)
	query := append([]*relation.Relation{fact}, dims...)
	want := relation.MultiJoin(query...)
	// Share 2 on each fact attribute, 1 on the B's.
	share := make([]int, FromQuery(query).NumVars())
	for i := range share {
		share[i] = 1
	}
	share[0], share[1] = 2, 2 // A1, A2 are first two vars (fact schema)
	s, err := NewShares(query, share)
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := s.Run(mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want) {
		t.Errorf("star join: result (%d tuples) differs from serial (%d)", got.Size(), want.Size())
	}
	// Fact tuples fix all shared coordinates: replication 1 each.
	if s.ReplicationOf(0) != 1 {
		t.Errorf("fact replication = %d, want 1", s.ReplicationOf(0))
	}
	// Each dimension is replicated p^{(N-1)/N} = √4 = 2 times.
	if s.ReplicationOf(1) != 2 || s.ReplicationOf(2) != 2 {
		t.Errorf("dim replication = %d/%d, want 2/2", s.ReplicationOf(1), s.ReplicationOf(2))
	}
	_ = met
}

func TestSharesRunWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rels := randomChain(2, 6, 20, rng)
	want := relation.MultiJoin(rels...)
	s, err := NewShares(rels, []int{1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := s.Run(mr.Config{FailureEveryN: 2, MaxRetries: 3, MapChunk: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want) {
		t.Error("faulty run differs from serial join")
	}
	if met.MapRetries == 0 {
		t.Error("expected injected retries")
	}
}

func TestOptimizeSharesChainPutsSharesOnInteriorVars(t *testing.T) {
	// For a uniform chain of 3, the optimizer should shard the two
	// interior attributes and leave the end attributes at share 1.
	rels := relation.FullChain(3, 6)
	s, err := OptimizeShares(rels, 16)
	if err != nil {
		t.Fatal(err)
	}
	if shareOf(s, "A0") != 1 || shareOf(s, "A3") != 1 {
		t.Errorf("end attributes sharded: %s", s.Describe())
	}
	if shareOf(s, "A1") < 2 || shareOf(s, "A2") < 2 {
		t.Errorf("interior attributes not sharded: %s", s.Describe())
	}
}

func TestOptimizeSharesStarShardsFactAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	fact, dims := relation.Star(2, 8, 400, 20, rng)
	query := append([]*relation.Relation{fact}, dims...)
	s, err := OptimizeShares(query, 16)
	if err != nil {
		t.Fatal(err)
	}
	// B attributes must keep share 1 (sharding them only multiplies p).
	if shareOf(s, "B1") != 1 || shareOf(s, "B2") != 1 {
		t.Errorf("non-fact attributes sharded: %s", s.Describe())
	}
	// Fact attributes take the parallelism.
	if shareOf(s, "A1")*shareOf(s, "A2") < 4 {
		t.Errorf("fact attributes under-sharded: %s", s.Describe())
	}
}

func TestOptimizedSharesStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rels := randomChain(4, 6, 30, rng)
	want := relation.MultiJoin(rels...)
	s, err := OptimizeShares(rels, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Run(mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want) {
		t.Errorf("optimized shares %s give wrong join", s.Describe())
	}
}

// Property: every potential output tuple is covered by exactly one cell —
// the cells of the constituent tuples always share exactly one id.
func TestPropertySharesExactlyOnce(t *testing.T) {
	rels := relation.FullChain(2, 5) // R1(A0,A1), R2(A1,A2)
	s, err := NewShares(rels, []int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a0, a1, a2 uint8) bool {
		t1 := relation.Tuple{int(a0) % 5, int(a1) % 5}
		t2 := relation.Tuple{int(a1) % 5, int(a2) % 5}
		c1 := s.cellsForTuple(0, t1)
		c2 := s.cellsForTuple(1, t2)
		set := make(map[int]bool)
		for _, c := range c1 {
			set[c] = true
		}
		shared := 0
		for _, c := range c2 {
			if set[c] {
				shared++
			}
		}
		return shared == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: replication of a tuple equals the number of cells enumerated.
func TestPropertyReplicationMatchesCells(t *testing.T) {
	rels := relation.FullChain(3, 4)
	s, err := NewShares(rels, []int{1, 2, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rel uint8, x, y uint8) bool {
		ri := int(rel) % 3
		t := relation.Tuple{int(x) % 4, int(y) % 4}
		return len(s.cellsForTuple(ri, t)) == s.ReplicationOf(ri)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneralArityLowerBound(t *testing.T) {
	// With alpha = 2 the general form reduces to LowerBound with rho = s/2.
	n, q := 20.0, 50.0
	if !approx(GeneralArityLowerBound(n, 4, 2, 4, q), LowerBound(n, 4, 2, q)) {
		t.Error("alpha=2 specialization disagrees with the binary bound")
	}
	// The s = m special case of Section 5.5.1: r >= n^{m-alpha} q^{1-m/alpha}.
	m, alpha := 6, 3
	got := GeneralArityLowerBound(n, m, alpha, m, q)
	want := math.Pow(n, float64(m-alpha)) * math.Pow(q, 1-float64(m)/float64(alpha))
	if !approx(got, want) {
		t.Errorf("s=m case: got %v, want %v", got, want)
	}
}

func TestDescribeAndShareByName(t *testing.T) {
	rels := relation.FullChain(2, 3)
	s, err := NewShares(rels, []int{1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	desc := s.Describe()
	for _, want := range []string{"A0=1", "A1=4", "A2=2", "p=8"} {
		if !containsStr(desc, want) {
			t.Errorf("Describe() = %q, want it to contain %q", desc, want)
		}
	}
	if shareOf(s, "A1") != 4 {
		t.Errorf("share of A1 = %d, want 4", shareOf(s, "A1"))
	}
	if shareOf(s, "missing") != 0 {
		t.Errorf("share of a missing attribute = %d, want 0", shareOf(s, "missing"))
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestOptimizeSharesRejectsBadP(t *testing.T) {
	rels := relation.FullChain(2, 3)
	if _, err := OptimizeShares(rels, 0); err == nil {
		t.Error("p=0 must be rejected")
	}
	// p=1 degenerates to the single-reducer schema.
	s, err := OptimizeShares(rels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumReducers() != 1 {
		t.Errorf("p=1: reducers = %d, want 1", s.NumReducers())
	}
}

func TestSharesTernaryRelations(t *testing.T) {
	// The Shares algorithm is not limited to binary relations: join two
	// ternary relations sharing one attribute (the general-arity setting
	// of Section 5.5.1).
	rng := rand.New(rand.NewSource(61))
	r := relation.Random("R", 4, 30, rng, "A", "B", "C")
	s := relation.Random("S", 4, 30, rng, "C", "D", "E")
	query := []*relation.Relation{r, s}
	want := relation.MultiJoin(query...)
	sh, err := OptimizeShares(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := sh.Run(mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want) {
		t.Errorf("ternary join (%d tuples) differs from serial (%d)", got.Size(), want.Size())
	}
	if met.PairsEmitted != sh.PredictedCommunication() {
		t.Errorf("pairs %d, predicted %d", met.PairsEmitted, sh.PredictedCommunication())
	}
	// rho for two hyperedges covering disjoint-but-linked vars: both
	// edges forced to 1 by their private attributes.
	rho, _, err := FromQuery(query).FractionalEdgeCover()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rho, 2) {
		t.Errorf("ternary chain rho = %v, want 2", rho)
	}
}

// TestSharesRunRefusesValuesItCannotPack pins that Run returns an error,
// not a wrong join, for a tuple value outside [0, 2^24): each value is
// packed into three bytes, so 2^24 would wrap to 0 and −1 to 2^24−1. At
// the ends of the range the join stays exact.
func TestSharesRunRefusesValuesItCannotPack(t *testing.T) {
	run := func(as ...int) (*relation.Relation, *relation.Relation, error) {
		r := relation.New("R", "A", "B")
		for _, a := range as {
			r.Add(a, 5)
		}
		s := relation.New("S", "B", "C")
		s.Add(5, 7)
		sh, err := OptimizeShares([]*relation.Relation{r, s}, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sh.Run(mr.Config{})
		return got, relation.MultiJoin(r, s), err
	}
	for _, bad := range [][]int{{relation.MaxValue}, {-1}, {relation.MaxValue, -1}} {
		if got, _, err := run(bad...); err == nil {
			t.Errorf("R.A = %v: Run = %v, nil error; want an error", bad, got.Tuples)
		}
	}
	got, want, err := run(0, relation.MaxValue-1)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want) {
		t.Errorf("Run = %v, serial join %v", got.Tuples, want.Tuples)
	}
}

// randomChain is the chain query R1(A0,A1), R2(A1,A2), …, RN(A_{N-1},A_N)
// with each relation holding size random tuples over domain {0..n-1}.
func randomChain(numRels, n, size int, rng *rand.Rand) []*relation.Relation {
	rels := make([]*relation.Relation, numRels)
	for i := range rels {
		rels[i] = relation.Random(fmt.Sprintf("R%d", i+1), n, size, rng,
			fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1))
	}
	return rels
}

// shareOf is the share of the named attribute, or 0 if the query has no
// such attribute.
func shareOf(s *Shares, attr string) int {
	if i := slices.Index(s.H.Vars, attr); i >= 0 {
		return s.Share[i]
	}
	return 0
}
