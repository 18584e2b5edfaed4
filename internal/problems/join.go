// Package problems implements the worked examples of Section 2 of the
// paper, demonstrating that the model "can capture a varied set of
// problems": the natural join of Example 2.1, the grouping-and-
// aggregation problem of Example 2.4, and the word-count discussion of
// Example 2.5 (the embarrassingly parallel case with replication rate 1).
// Each comes with its core.Problem model and a mapping schema; the
// Section 7.1 join-then-aggregate runs as MapReduce jobs.
package problems

import (
	"fmt"

	"repro/internal/core"
)

// JoinProblem is Example 2.1: the natural join R(A,B) ⋈ S(B,C) over
// finite domains of sizes NA, NB, NC. Inputs are the NA·NB possible R
// tuples followed by the NB·NC possible S tuples; outputs are the
// NA·NB·NC triples (a,b,c), each depending on the two inputs R(a,b) and
// S(b,c).
type JoinProblem struct {
	NA, NB, NC int
}

// NewJoinProblem returns the join problem for the given domain sizes.
func NewJoinProblem(na, nb, nc int) JoinProblem { return JoinProblem{na, nb, nc} }

// Name implements core.Problem.
func (p JoinProblem) Name() string {
	return fmt.Sprintf("join(NA=%d,NB=%d,NC=%d)", p.NA, p.NB, p.NC)
}

// NumInputs implements core.Problem: NA·NB + NB·NC.
func (p JoinProblem) NumInputs() int { return p.NA*p.NB + p.NB*p.NC }

// NumOutputs implements core.Problem: NA·NB·NC.
func (p JoinProblem) NumOutputs() int { return p.NA * p.NB * p.NC }

// RInput and SInput are the dense input indices of the possible tuples.
func (p JoinProblem) RInput(a, b int) int { return a*p.NB + b }

// SInput gives the dense input index of the possible tuple S(b,c).
func (p JoinProblem) SInput(b, c int) int { return p.NA*p.NB + b*p.NC + c }

// ForEachOutput implements core.Problem.
func (p JoinProblem) ForEachOutput(fn func(inputs []int) bool) {
	buf := make([]int, 2)
	for a := 0; a < p.NA; a++ {
		for b := 0; b < p.NB; b++ {
			for c := 0; c < p.NC; c++ {
				buf[0] = p.RInput(a, b)
				buf[1] = p.SInput(b, c)
				if !fn(buf) {
					return
				}
			}
		}
	}
}

// HashJoinSchema is the standard one-round join schema: one reducer per
// B-value (or per B-hash-bucket when k < NB), with every tuple sent to
// the single reducer of its B value — replication rate exactly 1, the
// join being embarrassingly parallel in this model when keyed on B.
type HashJoinSchema struct {
	P JoinProblem
	K int // number of B buckets, 1 ≤ K ≤ NB
}

// NewHashJoinSchema buckets B into k groups.
func NewHashJoinSchema(p JoinProblem, k int) (HashJoinSchema, error) {
	if k < 1 || k > p.NB {
		return HashJoinSchema{}, fmt.Errorf("problems: need 1 <= k <= NB, got %d", k)
	}
	return HashJoinSchema{P: p, K: k}, nil
}

// NumReducers implements core.MappingSchema.
func (s HashJoinSchema) NumReducers() int { return s.K }

// Assign implements core.MappingSchema: a tuple goes to the bucket of its
// B value.
func (s HashJoinSchema) Assign(in int) []int {
	var b int
	if in < s.P.NA*s.P.NB {
		b = in % s.P.NB
	} else {
		b = (in - s.P.NA*s.P.NB) / s.P.NC
	}
	return []int{b % s.K}
}

var _ core.MappingSchema = HashJoinSchema{}
