package engine

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/shuffle"
)

// TestPlanResolution pins every value the plan derives, which both
// executors take from it instead of defaulting on their own.
func TestPlanResolution(t *testing.T) {
	cpus := max(runtime.NumCPU(), 1)
	for _, tc := range []struct {
		in                  Plan
		workers, partitions int
	}{
		{Plan{}, cpus, shuffle.DefaultPartitions()},
		{Plan{Workers: -2, Partitions: -3}, cpus, shuffle.DefaultPartitions()},
		{Plan{Workers: 3, Partitions: 3}, 3, 4},
		{Plan{Workers: 1, Partitions: 5}, 1, 8},
		{Plan{Workers: 2, Partitions: 8}, 2, 8},
		{Plan{Partitions: 1}, cpus, 1},
	} {
		got := tc.in.Resolve()
		if got.Workers != tc.workers || got.Partitions != tc.partitions {
			t.Errorf("%+v.Resolve() = workers %d partitions %d, want %d and %d",
				tc.in, got.Workers, got.Partitions, tc.workers, tc.partitions)
		}
		if again := got.Resolve(); again != got {
			t.Errorf("Resolve is not idempotent: %+v then %+v", got, again)
		}
	}

	for _, tc := range []struct {
		p    Plan
		n    int
		want []TaskRange
	}{
		{Plan{Workers: 4}, 0, nil},
		// Zero chunk with n < 4·workers: one record per task, never zero.
		{Plan{Workers: 4}, 5, []TaskRange{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		{Plan{Workers: 2}, 17, []TaskRange{{0, 3}, {3, 6}, {6, 9}, {9, 12}, {12, 15}, {15, 17}}},
		{Plan{Workers: 2, MapChunk: 2}, 5, []TaskRange{{0, 2}, {2, 4}, {4, 5}}},
	} {
		if got := tc.p.MapTasks(tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v.MapTasks(%d) = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}

	for _, tc := range []struct {
		p     Plan
		pairs int64
		want  int
	}{
		{Plan{Workers: 4}, 1 << 20, 0},                       // no split target
		{Plan{Workers: 4, ReduceSplitPairs: 10}, 10, 0},      // not above the target
		{Plan{Workers: 1, ReduceSplitPairs: 10}, 11, 2},      // one worker still splits in two
		{Plan{Workers: 3, ReduceSplitPairs: 10}, 11, 3},      // fan-out = parallelism
		{Plan{ReduceSplitPairs: 10}, 11, max(cpus, 2)},       // default workers
		{Plan{Workers: 3, ReduceSplitPairs: -1}, 1 << 20, 0}, // negative target: off
	} {
		if got := tc.p.RangeFanout(tc.pairs); got != tc.want {
			t.Errorf("%+v.RangeFanout(%d) = %d, want %d", tc.p, tc.pairs, got, tc.want)
		}
	}

	for _, tc := range []struct {
		q        int
		maxGroup int64
		over     bool
	}{{0, 1 << 40, false}, {-1, 7, false}, {5, 5, false}, {5, 6, true}} {
		err := Plan{MaxReducerInput: tc.q}.CheckReducerInput("j", tc.maxGroup)
		if errors.Is(err, ErrReducerOverflow) != tc.over || (err != nil) != tc.over {
			t.Errorf("q %d, group %d: err = %v, want overflow %v", tc.q, tc.maxGroup, err, tc.over)
		}
	}
}
