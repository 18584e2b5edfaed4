package hamming

import (
	"fmt"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/mr"
)

// BallSchema is the "Ball-2" algorithm of Section 3.6 (after [3]): one
// reducer for every string s of length b, assigned all strings at distance
// at most 1 from s. Every pair at distance ≤ 2 is covered: for a
// distance-2 pair the two midpoint strings both work, and for a distance-1
// pair either endpoint's reducer works. Each reducer has q = b+1 inputs and
// covers about C(b,2) = Θ(q²) distance-2 outputs — the coverage that blocks
// the distance-1 style lower-bound argument for distance 2.
type BallSchema struct {
	B int
}

// NewBallSchema returns the Ball-2 schema for strings of length b.
func NewBallSchema(b int) BallSchema { return BallSchema{B: b} }

// ReducerSize is b+1: the center plus its b neighbors.
func (s BallSchema) ReducerSize() int { return s.B + 1 }

// NumReducers implements core.MappingSchema: one per string.
func (s BallSchema) NumReducers() int { return bitstr.Universe(s.B) }

// Assign implements core.MappingSchema: x is sent to its own reducer and
// to the reducer of each of its b neighbors, so r = b+1 exactly.
func (s BallSchema) Assign(in int) []int {
	x := uint64(in)
	rs := make([]int, 0, s.B+1)
	rs = append(rs, int(x))
	bitstr.Neighbors(x, s.B, func(y uint64) { rs = append(rs, int(y)) })
	return rs
}

var _ core.MappingSchema = BallSchema{}

// CoveredPerReducer is the number of distance-2 outputs one Ball-2 reducer
// covers: all C(b,2) pairs of distinct neighbors of the center are at
// distance 2 from each other.
func (s BallSchema) CoveredPerReducer() float64 {
	return bitstr.Binomial(s.B, 2)
}

// canonicalBallCenter returns the unique reducer (center string) allowed
// to produce the pair {x, y}: for a distance-1 pair the smaller endpoint,
// for a distance-2 pair the smaller of the two midpoints.
func canonicalBallCenter(x, y uint64) uint64 {
	switch bitstr.Distance(x, y) {
	case 1:
		if x < y {
			return x
		}
		return y
	case 2:
		diff := x ^ y
		i := trailingOne(diff)
		j := trailingOne(diff &^ (1 << uint(i)))
		m1 := x ^ (1 << uint(i))
		m2 := x ^ (1 << uint(j))
		if m1 < m2 {
			return m1
		}
		return m2
	default:
		return ^uint64(0)
	}
}

func trailingOne(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// RunBall executes Ball-2 as a MapReduce job over the given strings,
// producing each pair at distance 1 or 2 exactly once.
func RunBall(s BallSchema, inputs []uint64, cfg mr.Config) ([]Pair, mr.Metrics, error) {
	job := &mr.Job[uint64, uint64, uint64, Pair]{
		Name: fmt.Sprintf("hamming-ball2(b=%d)", s.B),
		Map: func(x uint64, emit func(uint64, uint64)) {
			emit(x, x)
			bitstr.Neighbors(x, s.B, func(y uint64) { emit(y, x) })
		},
		Reduce: func(center uint64, xs []uint64, emit func(Pair)) {
			slices.Sort(xs)
			for i := 0; i < len(xs); i++ {
				for j := i + 1; j < len(xs); j++ {
					x, y := xs[i], xs[j]
					d := bitstr.Distance(x, y)
					if d < 1 || d > 2 {
						continue
					}
					if canonicalBallCenter(x, y) == center {
						emit(Pair{x, y})
					}
				}
			}
		},
		Config: cfg,
	}
	return job.Run(inputs)
}
