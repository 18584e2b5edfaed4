package core

import "math"

// ScaledQ implements the input-density adjustment of Section 2.3: if an
// input is present with probability density and a reducer can tolerate
// qReal actual inputs, a mapping schema may assign up to qReal/density
// hypothetical inputs to it, since the expected number that materialize
// is qReal (with vanishing deviation for large q).
func ScaledQ(qReal, density float64) float64 {
	if density <= 0 || density > 1 {
		return qReal
	}
	return qReal / density
}

// CostModel is the execution-cost model of Section 1.2. Given the tradeoff
// curve r = f(q) for a problem, the total cost of solving an instance on a
// particular cluster is modeled as
//
//	cost(q) = A·f(q) + B·q + C·q²
//
// where A prices communication (proportional to replication rate), B prices
// total processor rental when per-reducer work is linear in q (the number
// of reducers is inversely proportional to q, so total work A problem whose
// reducers do O(q) work costs B·q in total), and C prices wall-clock time
// for reducers doing O(q²) work, as in Example 1.1's all-pairs comparison.
// That example no longer describes this repository's Hamming Splitting
// and Weight reducers: they probe each string's one-bit neighbours,
// Θ(q·log₂q) work, so C is about 0 for those families.
type CostModel struct {
	// F is the replication-rate tradeoff curve r = f(q).
	F func(q float64) float64
	// A, B, C are the cluster's price coefficients.
	A, B, C float64
}

// Cost evaluates the model at reducer size q.
func (m CostModel) Cost(q float64) float64 {
	return m.A*m.F(q) + m.B*q + m.C*q*q
}

// OptimalQ minimizes Cost over [qlo, qhi] by golden-section search refined
// from a coarse geometric grid scan. The curve A·f(q)+B·q+C·q² is unimodal
// for every monotone-decreasing f used in the paper, but the grid scan
// makes the search robust even if f has plateaus (e.g. f(q) = ⌈b/log₂q⌉).
// It returns the minimizing q and the cost there.
func (m CostModel) OptimalQ(qlo, qhi float64) (q, cost float64) {
	if qlo <= 0 {
		qlo = 1
	}
	if qhi < qlo {
		qhi = qlo
	}
	// Coarse geometric scan to bracket the minimum.
	const gridSteps = 256
	bestQ, bestC := qlo, m.Cost(qlo)
	ratio := math.Pow(qhi/qlo, 1/float64(gridSteps))
	x := qlo
	lo, hi := qlo, qhi
	prev := qlo
	for i := 0; i <= gridSteps; i++ {
		c := m.Cost(x)
		if c < bestC {
			bestC, bestQ = c, x
			lo = prev
			hi = math.Min(qhi, x*ratio)
		}
		prev = x
		x *= ratio
	}
	// Golden-section refinement inside the bracketing interval.
	const phi = 0.6180339887498949
	a, b := lo, hi
	c1 := b - phi*(b-a)
	c2 := a + phi*(b-a)
	f1, f2 := m.Cost(c1), m.Cost(c2)
	for i := 0; i < 100 && b-a > 1e-9*(1+b); i++ {
		if f1 < f2 {
			b, c2, f2 = c2, c1, f1
			c1 = b - phi*(b-a)
			f1 = m.Cost(c1)
		} else {
			a, c1, f1 = c1, c2, f2
			c2 = a + phi*(b-a)
			f2 = m.Cost(c2)
		}
	}
	q = (a + b) / 2
	cost = m.Cost(q)
	if bestC < cost {
		return bestQ, bestC
	}
	return q, cost
}
