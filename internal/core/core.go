// Package core implements the model of map-reduce problems from Section 2
// of Afrati, Das Sarma, Salihoglu and Ullman, "Upper and Lower Bounds on
// the Cost of a Map-Reduce Computation" (VLDB 2013).
//
// A Problem is a finite universe of inputs, a finite universe of outputs,
// and a mapping from each output to the set of inputs it depends on. A
// MappingSchema for reducer size q assigns each input to a set of reducers
// subject to the paper's two constraints: no reducer receives more than q
// inputs, and every output is covered — some reducer receives all of the
// output's inputs. The figure of merit is the replication rate, the
// average number of reducers to which an input is assigned.
//
// The package also provides the generic lower-bound recipe of Section 2.4
// (see bounds.go) and the cluster cost model of Section 1.2 (see cost.go).
package core

import (
	"fmt"
	"sort"
)

// Problem describes a map-reduce problem in the paper's model: hypothetical
// universes of inputs and outputs, and the dependency of each output on a
// set of inputs. Inputs are identified by dense indices in [0, NumInputs).
type Problem interface {
	// Name identifies the problem in reports.
	Name() string
	// NumInputs is the size |I| of the input universe.
	NumInputs() int
	// NumOutputs is the size |O| of the output universe.
	NumOutputs() int
	// ForEachOutput calls fn once per output with the (indices of the)
	// inputs that output depends on. The callback must not retain the
	// slice. Iteration stops early if fn returns false.
	ForEachOutput(fn func(inputs []int) bool)
}

// MappingSchema assigns inputs to reducers. Reducers are identified by
// dense indices in [0, NumReducers).
type MappingSchema interface {
	// NumReducers is the number of reducers the schema uses.
	NumReducers() int
	// Assign returns the reducers to which input in is sent. The result
	// must not be retained by the caller across calls.
	Assign(in int) []int
}

// Stats summarizes a mapping schema as executed against a problem.
type Stats struct {
	NumInputs       int
	NumReducers     int
	TotalAssigned   int     // sum over reducers of inputs assigned (Σ qᵢ)
	MaxReducerLoad  int     // the realized q
	ReplicationRate float64 // Σ qᵢ / |I|
	Loads           []int   // per-reducer input counts
}

// Measure computes the replication rate and per-reducer loads of a schema
// for the given problem. It is purely structural: it does not check
// coverage (see Validate).
func Measure(p Problem, s MappingSchema) Stats {
	loads := make([]int, s.NumReducers())
	total := 0
	for in := 0; in < p.NumInputs(); in++ {
		rs := s.Assign(in)
		total += len(rs)
		for _, r := range rs {
			loads[r]++
		}
	}
	st := Stats{
		NumInputs:     p.NumInputs(),
		NumReducers:   s.NumReducers(),
		TotalAssigned: total,
		Loads:         loads,
	}
	for _, l := range loads {
		if l > st.MaxReducerLoad {
			st.MaxReducerLoad = l
		}
	}
	if st.NumInputs > 0 {
		st.ReplicationRate = float64(total) / float64(st.NumInputs)
	}
	return st
}

// ValidationError reports why a schema is invalid for a problem.
type ValidationError struct {
	// Reducer and Load are set when a reducer exceeds the size limit q.
	Reducer, Load, Limit int
	// UncoveredInputs is set when some output has no reducer receiving
	// all of its inputs.
	UncoveredInputs []int
}

func (e *ValidationError) Error() string {
	if e.UncoveredInputs != nil {
		return fmt.Sprintf("core: output with inputs %v is not covered by any reducer", e.UncoveredInputs)
	}
	return fmt.Sprintf("core: reducer %d assigned %d inputs, exceeding limit q=%d", e.Reducer, e.Load, e.Limit)
}

// Validate checks the paper's two mapping-schema constraints for reducer
// size q: (1) no reducer is assigned more than q inputs, and (2) every
// output is covered by at least one reducer. A q of 0 skips the size check.
func Validate(p Problem, s MappingSchema, q int) error {
	st := Measure(p, s)
	if q > 0 {
		for r, l := range st.Loads {
			if l > q {
				return &ValidationError{Reducer: r, Load: l, Limit: q}
			}
		}
	}
	// Cache per-input assignments (sorted) so coverage checks are
	// intersections of sorted lists.
	assign := make([][]int, p.NumInputs())
	for in := 0; in < p.NumInputs(); in++ {
		rs := s.Assign(in)
		cp := make([]int, len(rs))
		copy(cp, rs)
		sort.Ints(cp)
		assign[in] = cp
	}
	var bad []int
	p.ForEachOutput(func(inputs []int) bool {
		if !covered(assign, inputs) {
			bad = make([]int, len(inputs))
			copy(bad, inputs)
			return false
		}
		return true
	})
	if bad != nil {
		return &ValidationError{UncoveredInputs: bad}
	}
	return nil
}

// covered reports whether some reducer appears in the assignment list of
// every input in inputs.
func covered(assign [][]int, inputs []int) bool {
	if len(inputs) == 0 {
		return true
	}
	cur := assign[inputs[0]]
	for _, in := range inputs[1:] {
		cur = intersectSorted(cur, assign[in])
		if len(cur) == 0 {
			return false
		}
	}
	return len(cur) > 0
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
