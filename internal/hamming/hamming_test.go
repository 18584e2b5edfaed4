package hamming

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/mr"
)

func allStrings(b int) []uint64 {
	xs := make([]uint64, bitstr.Universe(b))
	for i := range xs {
		xs[i] = uint64(i)
	}
	return xs
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
}

func TestProblemCounts(t *testing.T) {
	p := NewProblem(8)
	if p.NumInputs() != 256 {
		t.Errorf("NumInputs = %d, want 256", p.NumInputs())
	}
	// |O| = (b/2)·2^b = 4·256 = 1024.
	if p.NumOutputs() != 1024 {
		t.Errorf("NumOutputs = %d, want 1024", p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		if bitstr.Distance(uint64(inputs[0]), uint64(inputs[1])) != 1 {
			t.Fatalf("output %v not at distance 1", inputs)
		}
		count++
		return true
	})
	if count != p.NumOutputs() {
		t.Errorf("enumerated %d outputs, want %d", count, p.NumOutputs())
	}
}

func TestDistanceProblemCounts(t *testing.T) {
	p := NewDistanceProblem(6, 2)
	// 2^5·(C(6,1)+C(6,2)) = 32·21 = 672.
	if p.NumOutputs() != 672 {
		t.Errorf("NumOutputs = %d, want 672", p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		d := bitstr.Distance(uint64(inputs[0]), uint64(inputs[1]))
		if d < 1 || d > 2 {
			t.Fatalf("output %v at distance %d", inputs, d)
		}
		count++
		return true
	})
	if count != 672 {
		t.Errorf("enumerated %d outputs, want 672", count)
	}
}

func TestForEachOutputEarlyStop(t *testing.T) {
	p := NewProblem(6)
	count := 0
	p.ForEachOutput(func([]int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d outputs, want 5", count)
	}
}

// TestLemma31BruteForce verifies Lemma 3.1 exhaustively on tiny instances:
// no q strings contain more than (q/2)·log₂q distance-1 pairs, and
// subcubes achieve the bound exactly at q = 2^k.
func TestLemma31BruteForce(t *testing.T) {
	for b := 2; b <= 4; b++ {
		maxQ := 8
		if bitstr.Universe(b) < maxQ {
			maxQ = bitstr.Universe(b)
		}
		for q := 1; q <= maxQ; q++ {
			got := MaxPairsBruteForceD(b, q, 1)
			bound := MaxCoverable(float64(q))
			if float64(got) > bound+1e-9 {
				t.Errorf("b=%d q=%d: %d pairs exceed Lemma 3.1 bound %.3f", b, q, got, bound)
			}
			// Subcubes meet the bound exactly when q is a power of two
			// that fits in the cube.
			if q&(q-1) == 0 {
				if float64(got) != bound {
					t.Errorf("b=%d q=%d: brute force %d, want exact bound %.0f", b, q, got, bound)
				}
			}
		}
	}
}

func TestTheorem32ExtremePoints(t *testing.T) {
	b := 12
	// q=2 ⇒ r ≥ b; q=2^b ⇒ r ≥ 1 (Section 3.3's two extremes).
	if got := LowerBound(b, 2); got != float64(b) {
		t.Errorf("LowerBound(q=2) = %v, want %d", got, b)
	}
	if got := LowerBound(b, math.Exp2(float64(b))); math.Abs(got-1) > 1e-12 {
		t.Errorf("LowerBound(q=2^b) = %v, want 1", got)
	}
	if !math.IsInf(LowerBound(b, 1), 1) {
		t.Error("LowerBound(q=1) should be +Inf")
	}
}

func TestRecipeMatchesClosedForm(t *testing.T) {
	b := 10
	rc := Recipe(b)
	for _, q := range []float64{2, 4, 32, 1024} {
		want := LowerBound(b, q)
		if got := rc.LowerBound(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("recipe LowerBound(%v) = %v, want %v", q, got, want)
		}
	}
	if !rc.GOverQMonotone(2, 1024, 100) {
		t.Error("g(q)/q must be monotone for the recipe to be valid")
	}
}

func TestSplittingSchemaValid(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4} {
		s, err := NewSplittingSchema(12, c)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		p := NewProblem(12)
		if err := core.Validate(p, s, s.ReducerSize()); err != nil {
			t.Errorf("c=%d: schema invalid: %v", c, err)
		}
		st := core.Measure(p, s)
		if st.ReplicationRate != float64(c) {
			t.Errorf("c=%d: replication = %v, want exactly %d", c, st.ReplicationRate, c)
		}
		if st.MaxReducerLoad != s.ReducerSize() {
			t.Errorf("c=%d: max load = %d, want %d", c, st.MaxReducerLoad, s.ReducerSize())
		}
		// The schema matches the lower bound exactly: r = c = b/log₂(2^{b/c}).
		lb := LowerBound(12, float64(s.ReducerSize()))
		if math.Abs(st.ReplicationRate-lb) > 1e-9 {
			t.Errorf("c=%d: replication %v does not match lower bound %v", c, st.ReplicationRate, lb)
		}
	}
}

func TestSplittingSchemaRejectsBadC(t *testing.T) {
	if _, err := NewSplittingSchema(12, 5); err == nil {
		t.Error("c=5 does not divide b=12; want error")
	}
	if _, err := NewSplittingSchema(12, 0); err == nil {
		t.Error("c=0 must be rejected")
	}
}

func TestRunSplittingMatchesBruteForce(t *testing.T) {
	const b = 8
	inputs := allStrings(b)
	want := BruteForcePairs(inputs, 1)
	sortPairs(want)
	for _, c := range []int{1, 2, 4} {
		s, err := NewSplittingSchema(b, c)
		if err != nil {
			t.Fatal(err)
		}
		got, met, err := RunSplitting(s, inputs, mr.Config{})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("c=%d: found %d pairs, want %d", c, len(got), len(want))
		}
		if r := met.ReplicationRate(); r != float64(c) {
			t.Errorf("c=%d: measured replication %v, want %d", c, r, c)
		}
		if met.MaxReducerInput != int64(s.ReducerSize()) {
			t.Errorf("c=%d: max reducer input %d, want %d", c, met.MaxReducerInput, s.ReducerSize())
		}
	}
}

func TestRunSplittingSparseInput(t *testing.T) {
	// A sparse subset of the universe: correctness must not depend on all
	// inputs being present (Section 2.3's independence property).
	const b = 12
	inputs := []uint64{0, 1, 3, 7, 0xF0, 0xF1, 0xFF, 0x800, 0x801, 0xABC}
	want := BruteForcePairs(inputs, 1)
	sortPairs(want)
	s, err := NewSplittingSchema(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunSplitting(s, inputs, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sparse: got %v, want %v", got, want)
	}
}

func TestWeightSchemaValidAndCoverage(t *testing.T) {
	for _, tc := range []struct{ b, k, d int }{
		{8, 1, 2}, {8, 2, 2}, {8, 4, 2}, {8, 1, 4}, {8, 2, 4}, {12, 2, 2}, {12, 3, 2},
	} {
		s, err := NewWeightSchema(tc.b, tc.k, tc.d)
		if err != nil {
			t.Fatalf("b=%d k=%d d=%d: %v", tc.b, tc.k, tc.d, err)
		}
		p := NewProblem(tc.b)
		if err := core.Validate(p, s, 0); err != nil {
			t.Errorf("b=%d k=%d d=%d: coverage fails: %v", tc.b, tc.k, tc.d, err)
		}
	}
}

func TestWeightSchemaReplicationNearPrediction(t *testing.T) {
	s, err := NewWeightSchema(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Measure(NewProblem(16), s)
	want := s.ExpectedReplication() // 1 + d/k = 2
	// The finite-b measured rate differs from the asymptotic 1+d/k because
	// border weights do not hold exactly 1/k of the strings; allow 25%.
	if math.Abs(st.ReplicationRate-want)/want > 0.25 {
		t.Errorf("replication = %v, want near %v", st.ReplicationRate, want)
	}
	if st.ReplicationRate <= 1 || st.ReplicationRate >= 3 {
		t.Errorf("replication = %v, want in (1, 3)", st.ReplicationRate)
	}
}

func TestWeightSchemaMaxCellNearPrediction(t *testing.T) {
	s, err := NewWeightSchema(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Measure(NewProblem(16), s)
	pred := s.PredictedMaxCell()
	ratio := float64(st.MaxReducerLoad) / pred
	// Stirling is asymptotic and the estimate excludes border replicas;
	// at b=16 expect agreement within 2x.
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("max cell = %d, Stirling prediction = %.0f (ratio %.2f)", st.MaxReducerLoad, pred, ratio)
	}
	// The paper's printed expression is low by about 2^d (slipped Stirling
	// constant): document the relationship rather than asserting equality.
	if s.PaperPredictedMaxCell() >= pred {
		t.Errorf("paper's estimate %.0f should be below corrected %.0f", s.PaperPredictedMaxCell(), pred)
	}
}

func TestWeightSchemaRejectsBadParams(t *testing.T) {
	if _, err := NewWeightSchema(8, 3, 2); err == nil {
		t.Error("k=3 does not divide 4; want error")
	}
	if _, err := NewWeightSchema(8, 1, 3); err == nil {
		t.Error("d=3 does not divide 8; want error")
	}
}

// TestRunWeightMatchesBruteForce runs Weight on the engine for several
// schemas: the pairs must be the serial ones, and the engine's r and max
// reducer input, which mrbounds' weight table prints, must equal the
// schema's structural numbers from core.Measure.
func TestRunWeightMatchesBruteForce(t *testing.T) {
	const b = 10
	inputs := allStrings(b)
	want := BruteForcePairs(inputs, 1)
	sortPairs(want)
	for _, tc := range []struct{ k, d int }{{1, 2}, {5, 2}, {1, 5}, {2, 5}} {
		s, err := NewWeightSchema(b, tc.k, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		got, met, err := RunWeight(s, inputs, mr.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d d=%d: found %d pairs, want %d; the sets differ", tc.k, tc.d, len(got), len(want))
		}
		st := core.Measure(NewProblem(b), s)
		if met.ReplicationRate() != st.ReplicationRate {
			t.Errorf("k=%d d=%d: engine r = %v, core.Measure r = %v", tc.k, tc.d, met.ReplicationRate(), st.ReplicationRate)
		}
		if met.MaxReducerInput != int64(st.MaxReducerLoad) {
			t.Errorf("k=%d d=%d: engine max reducer input = %d, core.Measure = %d", tc.k, tc.d, met.MaxReducerInput, st.MaxReducerLoad)
		}
	}
}

func TestBallSchemaCoversDistanceTwo(t *testing.T) {
	const b = 6
	s := NewBallSchema(b)
	p := NewDistanceProblem(b, 2)
	if err := core.Validate(p, s, s.ReducerSize()); err != nil {
		t.Errorf("Ball-2 coverage fails: %v", err)
	}
	st := core.Measure(p, s)
	if st.ReplicationRate != float64(b+1) {
		t.Errorf("replication = %v, want b+1 = %d", st.ReplicationRate, b+1)
	}
	if st.MaxReducerLoad != b+1 {
		t.Errorf("max load = %d, want b+1 = %d", st.MaxReducerLoad, b+1)
	}
	// Coverage per reducer is Θ(q²): C(b,2) distance-2 outputs.
	if got := s.CoveredPerReducer(); got != bitstr.Binomial(b, 2) {
		t.Errorf("CoveredPerReducer = %v, want %v", got, bitstr.Binomial(b, 2))
	}
}

func TestRunBallMatchesBruteForce(t *testing.T) {
	const b = 7
	inputs := allStrings(b)
	want := BruteForcePairs(inputs, 2)
	sortPairs(want)
	got, met, err := RunBall(NewBallSchema(b), inputs, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("found %d pairs, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pair sets differ")
	}
	if r := met.ReplicationRate(); r != float64(b+1) {
		t.Errorf("replication = %v, want %d", r, b+1)
	}
}

func TestRunBallSparse(t *testing.T) {
	const b = 10
	inputs := []uint64{0, 1, 2, 3, 5, 9, 17, 0x3FF, 0x3FE, 0x2FF}
	want := BruteForcePairs(inputs, 2)
	sortPairs(want)
	got, _, err := RunBall(NewBallSchema(b), inputs, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sparse Ball-2: got %d pairs, want %d", len(got), len(want))
	}
}

func TestSplittingDSchemaValid(t *testing.T) {
	for _, tc := range []struct{ b, c, d int }{
		{8, 4, 2}, {8, 4, 1}, {9, 3, 2}, {8, 2, 2},
	} {
		s, err := NewSplittingDSchema(tc.b, tc.c, tc.d)
		if err != nil {
			t.Fatalf("b=%d c=%d d=%d: %v", tc.b, tc.c, tc.d, err)
		}
		p := NewDistanceProblem(tc.b, tc.d)
		if err := core.Validate(p, s, s.ReducerSize()); err != nil {
			t.Errorf("b=%d c=%d d=%d: %v", tc.b, tc.c, tc.d, err)
		}
		st := core.Measure(p, s)
		wantR := bitstr.Binomial(tc.c, tc.d)
		if st.ReplicationRate != wantR {
			t.Errorf("b=%d c=%d d=%d: replication %v, want C(c,d) = %v", tc.b, tc.c, tc.d, st.ReplicationRate, wantR)
		}
	}
}

func TestSplittingDRejectsBadParams(t *testing.T) {
	if _, err := NewSplittingDSchema(8, 3, 1); err == nil {
		t.Error("c=3 does not divide 8; want error")
	}
	if _, err := NewSplittingDSchema(8, 4, 5); err == nil {
		t.Error("d > c must be rejected")
	}
	if _, err := NewSplittingDSchema(8, 4, 0); err == nil {
		t.Error("d=0 must be rejected")
	}
}

func TestRunSplittingDMatchesBruteForce(t *testing.T) {
	const b, c, d = 8, 4, 2
	inputs := allStrings(b)
	want := BruteForcePairs(inputs, d)
	sortPairs(want)
	s, err := NewSplittingDSchema(b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := RunSplittingD(s, inputs, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("found %d pairs, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pair sets differ")
	}
	if r := met.ReplicationRate(); r != bitstr.Binomial(c, d) {
		t.Errorf("replication = %v, want C(%d,%d) = %v", r, c, d, bitstr.Binomial(c, d))
	}
}

func TestCanonicalDeletionMask(t *testing.T) {
	// diff in segment 2 only, c=4, d=2: canonical adds segment 0.
	if got := canonicalDeletionMask(0b0100, 4, 2); got != 0b0101 {
		t.Errorf("canonical(0100) = %04b, want 0101", got)
	}
	// diff already has d segments: unchanged.
	if got := canonicalDeletionMask(0b1010, 4, 2); got != 0b1010 {
		t.Errorf("canonical(1010) = %04b, want 1010", got)
	}
	// empty diff (identical strings): first d segments.
	if got := canonicalDeletionMask(0, 4, 2); got != 0b0011 {
		t.Errorf("canonical(0) = %04b, want 0011", got)
	}
}

// Property: every distance-1 pair is covered by exactly one Splitting
// reducer (the natural exactly-once property of the algorithm).
func TestPropertySplittingExactlyOnce(t *testing.T) {
	const b, c = 12, 3
	s, err := NewSplittingSchema(b, c)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xRaw uint16, bitRaw uint8) bool {
		x := uint64(xRaw) & (1<<b - 1)
		y := bitstr.Flip(x, int(bitRaw)%b)
		shared := 0
		rx, ry := s.Assign(int(x)), s.Assign(int(y))
		for _, a := range rx {
			for _, bb := range ry {
				if a == bb {
					shared++
				}
			}
		}
		return shared == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the weight schema covers every distance-1 pair (randomized
// spot check at a larger b than Validate can afford).
func TestPropertyWeightCoversAtLargeB(t *testing.T) {
	const b = 20
	s, err := NewWeightSchema(b, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xRaw uint32, bitRaw uint8) bool {
		x := uint64(xRaw) & (1<<b - 1)
		y := bitstr.Flip(x, int(bitRaw)%b)
		rx, ry := s.Assign(int(x)), s.Assign(int(y))
		for _, a := range rx {
			for _, bb := range ry {
				if a == bb {
					return true
				}
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Ball-2 covers every distance-≤2 pair at larger b.
func TestPropertyBallCoversAtLargeB(t *testing.T) {
	const b = 16
	s := NewBallSchema(b)
	f := func(xRaw uint16, b1, b2 uint8) bool {
		x := uint64(xRaw)
		y := bitstr.Flip(bitstr.Flip(x, int(b1)%b), int(b2)%b)
		if x == y {
			return true // distance 0: not an output
		}
		rx, ry := s.Assign(int(x)), s.Assign(int(y))
		set := make(map[int]bool, len(rx))
		for _, a := range rx {
			set[a] = true
		}
		for _, bb := range ry {
			if set[bb] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBruteForcePairsThreshold(t *testing.T) {
	inputs := []uint64{0b000, 0b001, 0b011, 0b111}
	d1 := BruteForcePairs(inputs, 1)
	if len(d1) != 3 {
		t.Errorf("d=1: %d pairs, want 3", len(d1))
	}
	d3 := BruteForcePairs(inputs, 3)
	if len(d3) != 6 {
		t.Errorf("d=3: %d pairs, want all 6", len(d3))
	}
	for _, p := range d3 {
		if p.X >= p.Y {
			t.Errorf("pair %v not normalized", p)
		}
	}
}

// TestFootnote4CellBalancing reproduces footnote 4 of the paper: the
// weight-partition cells have wildly uneven populations, and combining
// small cells at one compute node equalizes the work. LPT balancing over
// the measured cell loads must bring the per-worker makespan close to the
// ideal total/workers, far below the raw largest-cell load times spread.
func TestFootnote4CellBalancing(t *testing.T) {
	s, err := NewWeightSchema(16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Measure(NewProblem(16), s)
	workers := 4
	_, makespan := core.BalanceLoads(st.Loads, workers)
	ideal := core.IdealMakespan(st.Loads, workers)
	if makespan > ideal*5/4 {
		t.Errorf("balanced makespan %d exceeds 1.25x ideal %d", makespan, ideal)
	}
	// Sanity: cells really are uneven — the largest holds far more than
	// the mean (the binomial concentration of Section 3.4).
	mean := st.TotalAssigned / st.NumReducers
	if st.MaxReducerLoad < 4*mean {
		t.Errorf("expected heavy skew across cells: max %d vs mean %d", st.MaxReducerLoad, mean)
	}
}

func TestPairSchemaQ2Extreme(t *testing.T) {
	// The q=2 endpoint of Figure 1: one reducer per pair, r = b exactly.
	for _, b := range []int{3, 6, 8} {
		s := NewPairSchema(b)
		p := NewProblem(b)
		if s.NumReducers() != p.NumOutputs() {
			t.Errorf("b=%d: reducers %d, want one per output %d", b, s.NumReducers(), p.NumOutputs())
		}
		if err := core.Validate(p, s, 2); err != nil {
			t.Errorf("b=%d: invalid at q=2: %v", b, err)
		}
		st := core.Measure(p, s)
		if st.ReplicationRate != float64(b) {
			t.Errorf("b=%d: r = %v, want exactly b", b, st.ReplicationRate)
		}
		if st.MaxReducerLoad != 2 {
			t.Errorf("b=%d: max load = %d, want 2", b, st.MaxReducerLoad)
		}
		// Matches the Theorem 3.2 bound b/log2(2) = b exactly.
		if lb := LowerBound(b, 2); st.ReplicationRate != lb {
			t.Errorf("b=%d: r = %v does not sit on the bound %v", b, st.ReplicationRate, lb)
		}
	}
}
