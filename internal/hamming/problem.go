// Package hamming implements Section 3 of the paper: the
// Hamming-distance-1 problem, its exact lower bound r ≥ b/log₂q, and every
// matching or near-matching algorithm the paper describes — the Splitting
// algorithm (Section 3.3), the weight-partition algorithm for large q
// (Section 3.4) and its d-dimensional generalization (Section 3.5), and
// the distance-d algorithms Ball-2 and generalized Splitting (Section 3.6).
//
// Inputs are the 2^b bit strings of length b; outputs are pairs of strings
// at Hamming distance exactly 1 (or at most d for the distance-d problem).
package hamming

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// Problem is the Hamming-distance problem over all strings of length B:
// outputs are pairs of strings at distance at least 1 and at most D. For
// D = 1 this is exactly the paper's Hamming-distance-1 problem, with
// |I| = 2^b and |O| = (b/2)·2^b.
type Problem struct {
	B int // string length in bits
	D int // distance threshold (outputs are pairs with 1 ≤ distance ≤ D)
}

// NewProblem returns the Hamming-distance-1 problem for strings of length b.
func NewProblem(b int) Problem { return Problem{B: b, D: 1} }

// NewDistanceProblem returns the distance-≤d problem for strings of
// length b.
func NewDistanceProblem(b, d int) Problem { return Problem{B: b, D: d} }

// Name implements core.Problem.
func (p Problem) Name() string {
	return fmt.Sprintf("hamming(b=%d,d=%d)", p.B, p.D)
}

// NumInputs implements core.Problem: 2^b strings.
func (p Problem) NumInputs() int { return bitstr.Universe(p.B) }

// NumOutputs implements core.Problem. The number of unordered pairs at
// distance exactly e is 2^b · C(b,e) / 2, so the total for 1 ≤ e ≤ D is
// 2^(b-1) · Σ C(b,e). For D = 1 this is (b/2)·2^b, matching Table 1.
func (p Problem) NumOutputs() int {
	total := 0.0
	for e := 1; e <= p.D; e++ {
		total += bitstr.Binomial(p.B, e)
	}
	return int(total) * bitstr.Universe(p.B) / 2
}

// ForEachOutput implements core.Problem: each output's inputs are the two
// string values themselves (a string x is input index x).
func (p Problem) ForEachOutput(fn func(inputs []int) bool) {
	buf := make([]int, 2)
	n := uint64(bitstr.Universe(p.B))
	for e := 1; e <= p.D; e++ {
		stop := false
		bitstr.ChooseSets(p.B, e, func(diff uint64) {
			if stop {
				return
			}
			for x := uint64(0); x < n; x++ {
				y := x ^ diff
				if x >= y {
					continue // count each pair once
				}
				buf[0], buf[1] = int(x), int(y)
				if !fn(buf) {
					stop = true
					return
				}
			}
		})
		if stop {
			return
		}
	}
}

// Recipe returns the Section 2.4 lower-bound recipe for the distance-1
// problem: g(q) = (q/2)·log₂q (Lemma 3.1), |I| = 2^b, |O| = (b/2)·2^b,
// which yields r ≥ b/log₂q (Theorem 3.2).
func Recipe(b int) core.Recipe {
	return core.Recipe{
		ProblemName: fmt.Sprintf("hamming-1(b=%d)", b),
		G: func(q float64) float64 {
			if q <= 1 {
				return 0
			}
			return q / 2 * math.Log2(q)
		},
		NumInputs:  math.Exp2(float64(b)),
		NumOutputs: float64(b) / 2 * math.Exp2(float64(b)),
	}
}

// LowerBound is the closed-form Theorem 3.2 bound r ≥ b / log₂q.
func LowerBound(b int, q float64) float64 {
	if q <= 1 {
		return math.Inf(1)
	}
	return float64(b) / math.Log2(q)
}

// MaxCoverable returns Lemma 3.1's bound (q/2)·log₂q on the number of
// distance-1 pairs any q strings can contain.
func MaxCoverable(q float64) float64 {
	if q <= 1 {
		return 0
	}
	return q / 2 * math.Log2(q)
}

// MaxPairsBruteForceD computes, by exhaustive search over all q-subsets
// of the 2^b strings, the true maximum number of pairs at Hamming
// distance at most d within a set of q strings: at d = 1 it verifies
// Lemma 3.1 on tiny instances (b ≤ 4, q ≤ 8). Section 3.6 observes that for d = 2 this quantity
// is Ω(q²) at small q (witnessed by the Ball-2 reducer: a center plus its
// b neighbors contain C(b,2)+b pairs within distance 2), which is what
// blocks the distance-1 lower-bound technique. Exponential; tiny b and q
// only.
func MaxPairsBruteForceD(b, q, d int) int {
	n := bitstr.Universe(b)
	best := 0
	bitstr.ChooseSets(n, q, func(mask uint64) {
		var members []uint64
		for x := 0; x < n; x++ {
			if mask&(1<<uint(x)) != 0 {
				members = append(members, uint64(x))
			}
		}
		pairs := 0
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if dist := bitstr.Distance(members[i], members[j]); dist >= 1 && dist <= d {
					pairs++
				}
			}
		}
		if pairs > best {
			best = pairs
		}
	})
	return best
}

// BruteForcePairs returns all unordered pairs (x, y) from inputs with
// 1 ≤ Distance(x,y) ≤ d, as the serial baseline for the join algorithms.
func BruteForcePairs(inputs []uint64, d int) []Pair {
	var out []Pair
	for i := 0; i < len(inputs); i++ {
		for j := i + 1; j < len(inputs); j++ {
			dist := bitstr.Distance(inputs[i], inputs[j])
			if dist >= 1 && dist <= d {
				x, y := inputs[i], inputs[j]
				if x > y {
					x, y = y, x
				}
				out = append(out, Pair{x, y})
			}
		}
	}
	return out
}

// Pair is an unordered output pair with X < Y.
type Pair struct{ X, Y uint64 }
