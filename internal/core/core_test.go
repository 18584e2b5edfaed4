package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// allPairsProblem is a tiny synthetic problem: n inputs, one output per
// unordered pair of inputs. It is the structure of any "compare all pairs"
// problem, such as a similarity join.
type allPairsProblem struct{ n int }

func (p allPairsProblem) Name() string    { return "all-pairs" }
func (p allPairsProblem) NumInputs() int  { return p.n }
func (p allPairsProblem) NumOutputs() int { return p.n * (p.n - 1) / 2 }
func (p allPairsProblem) ForEachOutput(fn func([]int) bool) {
	buf := make([]int, 2)
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			buf[0], buf[1] = i, j
			if !fn(buf) {
				return
			}
		}
	}
}

// schemaFunc adapts a function to the MappingSchema interface.
type schemaFunc struct {
	reducers int
	fn       func(in int) []int
}

func (s schemaFunc) NumReducers() int    { return s.reducers }
func (s schemaFunc) Assign(in int) []int { return s.fn(in) }

// singleReducer sends every input to one reducer: replication rate 1
// and q = |I|.
var singleReducer = schemaFunc{reducers: 1, fn: func(int) []int { return []int{0} }}

// pairReducerSchema gives each pair of inputs its own reducer: q = 2,
// replication rate n-1.
func pairReducerSchema(n int) MappingSchema {
	type pair struct{ i, j int }
	id := make(map[pair]int)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			id[pair{i, j}] = k
			k++
		}
	}
	return schemaFunc{
		reducers: k,
		fn: func(in int) []int {
			var rs []int
			for i := 0; i < n; i++ {
				if i == in {
					continue
				}
				a, b := in, i
				if a > b {
					a, b = b, a
				}
				rs = append(rs, id[pair{a, b}])
			}
			return rs
		},
	}
}

func TestMeasureAllPairs(t *testing.T) {
	p := allPairsProblem{n: 6}
	s := pairReducerSchema(6)
	st := Measure(p, s)
	if st.NumReducers != 15 {
		t.Errorf("NumReducers = %d, want 15", st.NumReducers)
	}
	if st.ReplicationRate != 5 { // n-1
		t.Errorf("ReplicationRate = %v, want 5", st.ReplicationRate)
	}
	if st.MaxReducerLoad != 2 {
		t.Errorf("MaxReducerLoad = %d, want 2", st.MaxReducerLoad)
	}
	if st.TotalAssigned != 30 {
		t.Errorf("TotalAssigned = %d, want 30", st.TotalAssigned)
	}
}

func TestValidateAccepts(t *testing.T) {
	p := allPairsProblem{n: 5}
	if err := Validate(p, pairReducerSchema(5), 2); err != nil {
		t.Errorf("Validate(pair schema, q=2) = %v, want nil", err)
	}
	if err := Validate(p, singleReducer, 5); err != nil {
		t.Errorf("Validate(single reducer, q=n) = %v, want nil", err)
	}
}

func TestValidateRejectsOversizedReducer(t *testing.T) {
	p := allPairsProblem{n: 5}
	err := Validate(p, singleReducer, 4) // q < n: single reducer too big
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("Validate = %v, want ValidationError", err)
	}
	if ve.Load != 5 || ve.Limit != 4 {
		t.Errorf("got load=%d limit=%d, want 5 and 4", ve.Load, ve.Limit)
	}
	if ve.Error() == "" {
		t.Error("empty error message")
	}
}

func TestValidateRejectsUncoveredOutput(t *testing.T) {
	p := allPairsProblem{n: 4}
	// Split inputs into two reducers {0,1} and {2,3}: the pair (0,2) is
	// never co-located.
	s := schemaFunc{reducers: 2, fn: func(in int) []int { return []int{in / 2} }}
	err := Validate(p, s, 2)
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("Validate = %v, want ValidationError", err)
	}
	if len(ve.UncoveredInputs) != 2 {
		t.Errorf("UncoveredInputs = %v, want a pair", ve.UncoveredInputs)
	}
	if ve.Error() == "" {
		t.Error("empty error message")
	}
}

func TestRecipeHammingForm(t *testing.T) {
	// Hamming-distance-1 with b=16: |I| = 2^16, |O| = (b/2)·2^b,
	// g(q) = (q/2)·log₂q ⇒ r ≥ b/log₂q.
	b := 16.0
	rc := Recipe{
		ProblemName: "hamming-1",
		G:           func(q float64) float64 { return q / 2 * math.Log2(q) },
		NumInputs:   math.Exp2(b),
		NumOutputs:  b / 2 * math.Exp2(b),
	}
	for _, q := range []float64{2, 4, 16, 256, 65536} {
		want := b / math.Log2(q)
		if want < 1 {
			want = 1
		}
		if got := rc.LowerBound(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("LowerBound(%v) = %v, want %v", q, got, want)
		}
	}
	if !rc.GOverQMonotone(2, 65536, 200) {
		t.Error("g(q)/q = log₂(q)/2 should be monotone increasing")
	}
}

func TestRecipeMatMulForm(t *testing.T) {
	// n×n matrix multiplication: |I| = 2n², |O| = n², g(q) = q²/(4n²)
	// ⇒ r ≥ 2n²/q.
	n := 64.0
	rc := Recipe{
		ProblemName: "matmul",
		G:           func(q float64) float64 { return q * q / (4 * n * n) },
		NumInputs:   2 * n * n,
		NumOutputs:  n * n,
	}
	for _, q := range []float64{2 * n, 4 * n, n * n, 2 * n * n} {
		want := 2 * n * n / q
		if got := rc.LowerBound(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("LowerBound(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestRecipeClampAtOne(t *testing.T) {
	// 2-paths: raw bound 2n/q drops below 1 for q > 2n; LowerBound clamps.
	n := 100.0
	rc := Recipe{
		ProblemName: "2-paths",
		G:           func(q float64) float64 { return q * q / 2 },
		NumInputs:   n * n / 2,
		NumOutputs:  n * n * n / 2,
	}
	if got := rc.LowerBound(4 * n); got != 1 {
		t.Errorf("LowerBound(4n) = %v, want clamped to 1", got)
	}
}

func TestRecipeNonMonotone(t *testing.T) {
	rc := Recipe{G: func(q float64) float64 { return math.Sqrt(q) }} // g/q decreasing
	if rc.GOverQMonotone(1, 100, 50) {
		t.Error("√q/q is decreasing; GOverQMonotone should report false")
	}
}

func TestRecipeDegenerate(t *testing.T) {
	rc := Recipe{G: func(float64) float64 { return 0 }, NumInputs: 10, NumOutputs: 10}
	if !math.IsInf(rc.LowerBound(4), 1) {
		t.Error("LowerBound with g=0 should be +Inf")
	}
	if rc.GOverQMonotone(0, 10, 5) {
		t.Error("GOverQMonotone with qlo=0 should be false")
	}
	if rc.GOverQMonotone(1, 10, 0) {
		t.Error("GOverQMonotone with steps=0 should be false")
	}
}

func TestCostModelKnownMinimum(t *testing.T) {
	// f(q) = K/q with cost A·K/q + B·q has its minimum at q* = √(A·K/B).
	K, A, B := 1000.0, 4.0, 1.0
	m := CostModel{F: func(q float64) float64 { return K / q }, A: A, B: B}
	q, cost := m.OptimalQ(1, 1e6)
	want := math.Sqrt(A * K / B)
	if math.Abs(q-want)/want > 1e-3 {
		t.Errorf("OptimalQ = %v, want %v", q, want)
	}
	wantCost := 2 * math.Sqrt(A*K*B)
	if math.Abs(cost-wantCost)/wantCost > 1e-6 {
		t.Errorf("cost = %v, want %v", cost, wantCost)
	}
}

func TestCostModelQuadraticTerm(t *testing.T) {
	// Adding a wall-clock q² term moves the optimum to smaller q.
	K := 1000.0
	lin := CostModel{F: func(q float64) float64 { return K / q }, A: 1, B: 1}
	quad := CostModel{F: func(q float64) float64 { return K / q }, A: 1, B: 1, C: 0.1}
	qLin, _ := lin.OptimalQ(1, 1e6)
	qQuad, _ := quad.OptimalQ(1, 1e6)
	if qQuad >= qLin {
		t.Errorf("quadratic optimum q=%v should be below linear optimum q=%v", qQuad, qLin)
	}
}

func TestCostModelDegenerateRange(t *testing.T) {
	m := CostModel{F: func(q float64) float64 { return 1 }, A: 1, B: 1}
	q, _ := m.OptimalQ(-5, -10) // nonsense range; must not panic
	if q < 1 {
		t.Errorf("OptimalQ clamped q = %v, want >= 1", q)
	}
}

// Property: for any valid pair schema instance, the measured replication
// rate times |I| equals the total load over reducers (conservation of
// communication).
func TestPropertyConservation(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 2
		p := allPairsProblem{n: n}
		st := Measure(p, pairReducerSchema(n))
		sum := 0
		for _, l := range st.Loads {
			sum += l
		}
		return sum == st.TotalAssigned &&
			math.Abs(st.ReplicationRate*float64(st.NumInputs)-float64(st.TotalAssigned)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LowerBound is never below 1 nor below the raw formula
// q|O|/(g(q)|I|).
func TestPropertyLowerBoundClamp(t *testing.T) {
	rc := Recipe{
		G:          func(q float64) float64 { return q * q },
		NumInputs:  50,
		NumOutputs: 100,
	}
	f := func(qRaw uint16) bool {
		q := float64(qRaw%1000) + 1
		lb := rc.LowerBound(q)
		raw := q * rc.NumOutputs / (rc.G(q) * rc.NumInputs)
		return lb >= 1 && raw <= lb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
