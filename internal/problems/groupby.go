package problems

import (
	"fmt"

	"repro/internal/core"
)

// GroupByProblem is Example 2.4: SELECT A, SUM(B) FROM R GROUP BY A over
// finite domains of sizes NA and NB. Inputs are the NA·NB possible
// tuples; outputs are the NA groups, each depending on the NB possible
// tuples sharing its A value. Unlike the other examples, an output is
// produced when *any* (not all) of its inputs are present, and its value
// is computed from the inputs that appear.
type GroupByProblem struct {
	NA, NB int
}

// NewGroupByProblem returns the grouping problem for the given domains.
func NewGroupByProblem(na, nb int) GroupByProblem { return GroupByProblem{na, nb} }

// Name implements core.Problem.
func (p GroupByProblem) Name() string { return fmt.Sprintf("groupby(NA=%d,NB=%d)", p.NA, p.NB) }

// NumInputs implements core.Problem.
func (p GroupByProblem) NumInputs() int { return p.NA * p.NB }

// NumOutputs implements core.Problem: one per A value.
func (p GroupByProblem) NumOutputs() int { return p.NA }

// ForEachOutput implements core.Problem: group a depends on the NB tuples
// (a, *).
func (p GroupByProblem) ForEachOutput(fn func(inputs []int) bool) {
	buf := make([]int, p.NB)
	for a := 0; a < p.NA; a++ {
		for b := 0; b < p.NB; b++ {
			buf[b] = a*p.NB + b
		}
		if !fn(buf) {
			return
		}
	}
}

// GroupBySchema sends each tuple to the single reducer of its A value —
// replication rate exactly 1: grouping is embarrassingly parallel, the
// zero-tradeoff end of the paper's spectrum. Each reducer holds at most
// NB inputs, so the schema is only feasible for q ≥ NB (the analogue of
// footnote 3's caveat for word count).
type GroupBySchema struct {
	P GroupByProblem
}

// NumReducers implements core.MappingSchema.
func (s GroupBySchema) NumReducers() int { return s.P.NA }

// Assign implements core.MappingSchema.
func (s GroupBySchema) Assign(in int) []int { return []int{in / s.P.NB} }

var _ core.MappingSchema = GroupBySchema{}

// GroupSum is one aggregation result.
type GroupSum struct {
	A   int
	Sum int64
}

// WordCountProblem is Example 2.5: with word *occurrences* as the inputs
// (the view under which the replication rate is meaningfully 1), inputs
// are (document position, word) pairs over a vocabulary of V words and a
// corpus of P positions; outputs are the V per-word counts. The paper's
// point: the natural schema has replication rate exactly 1 independent of
// q, so word count exhibits no tradeoff at all.
type WordCountProblem struct {
	V, P int // vocabulary size, total positions
}

// Name implements core.Problem.
func (w WordCountProblem) Name() string { return fmt.Sprintf("wordcount(V=%d,P=%d)", w.V, w.P) }

// NumInputs implements core.Problem: every position can hold any word.
func (w WordCountProblem) NumInputs() int { return w.V * w.P }

// NumOutputs implements core.Problem.
func (w WordCountProblem) NumOutputs() int { return w.V }

// ForEachOutput implements core.Problem: the count of word v depends on
// the P possible occurrences of v.
func (w WordCountProblem) ForEachOutput(fn func(inputs []int) bool) {
	buf := make([]int, w.P)
	for v := 0; v < w.V; v++ {
		for p := 0; p < w.P; p++ {
			buf[p] = v*w.P + p
		}
		if !fn(buf) {
			return
		}
	}
}

// WordCountSchema routes each occurrence to its word's reducer:
// replication rate 1.
type WordCountSchema struct {
	P WordCountProblem
}

// NumReducers implements core.MappingSchema.
func (s WordCountSchema) NumReducers() int { return s.P.V }

// Assign implements core.MappingSchema.
func (s WordCountSchema) Assign(in int) []int { return []int{in / s.P.P} }

var _ core.MappingSchema = WordCountSchema{}
