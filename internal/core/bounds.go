package core

import "math"

// Recipe is the generic lower-bound recipe of Section 2.4. Given an upper
// bound g(q) on the number of outputs a reducer with q inputs can cover,
// the total input count |I| and output count |O|, the recipe derives
//
//	r ≥ q·|O| / (g(q)·|I|)
//
// valid whenever g(q)/q is monotonically increasing in q.
type Recipe struct {
	// ProblemName identifies the problem in reports.
	ProblemName string
	// G is the upper bound g(q) on outputs covered by q inputs.
	G func(q float64) float64
	// NumInputs is |I| and NumOutputs is |O| for the instance.
	NumInputs, NumOutputs float64
}

// LowerBound evaluates the recipe's replication-rate lower bound at q.
// The result is never below 1, the trivial bound (every input must be sent
// somewhere at least once when it participates in some output); the paper
// makes this replacement explicit for 2-paths in Section 5.4.1.
func (rc Recipe) LowerBound(q float64) float64 {
	g := rc.G(q)
	if g <= 0 || rc.NumInputs <= 0 {
		return math.Inf(1)
	}
	r := q * rc.NumOutputs / (g * rc.NumInputs)
	if r < 1 {
		return 1
	}
	return r
}

// GOverQMonotone verifies numerically that g(q)/q is monotonically
// non-decreasing on [qlo, qhi], the side condition the recipe's replacement
// trick requires. It samples steps+1 points geometrically spaced across the
// interval.
func (rc Recipe) GOverQMonotone(qlo, qhi float64, steps int) bool {
	if steps < 1 || qlo <= 0 || qhi < qlo {
		return false
	}
	ratio := math.Pow(qhi/qlo, 1/float64(steps))
	prev := rc.G(qlo) / qlo
	const tol = 1e-12
	q := qlo
	for i := 0; i < steps; i++ {
		q *= ratio
		cur := rc.G(q) / q
		if cur < prev-tol*math.Max(1, math.Abs(prev)) {
			return false
		}
		prev = cur
	}
	return true
}
