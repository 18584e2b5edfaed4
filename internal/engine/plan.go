package engine

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/shuffle"
)

// Plan is the part of a round's configuration both executors honour —
// in-process (Run) and across worker processes (internal/proc) — and
// the only place its defaults and derived values are computed, so the
// two executors cannot disagree on them. The paper's one tunable, the
// reducer size q, is MaxReducerInput; the rest shape the data path
// without changing outputs.
type Plan struct {
	// Workers is the number of parallel map (and reduce) workers:
	// goroutines in process, worker processes in ProcMode. Zero means
	// runtime.NumCPU().
	Workers int

	// Partitions is the shuffle partition count P, rounded up to a
	// power of two; <= 0 selects shuffle.DefaultPartitions().
	Partitions int

	// MapChunk is the number of input records per map task. Zero means
	// an automatic chunk targeting ~4 tasks per worker.
	MapChunk int

	// MemoryBudget is the per-partition memory budget in buffered
	// pairs: a shuffle partition whose live buffer reaches the budget
	// seals its run (in process: to disk with a SpillDir, else in
	// memory; in a proc map worker: to its spool, mid-task).
	MemoryBudget int

	// MaxReducerInput, when positive, fails the round before any key is
	// reduced if a key group exceeds it: the paper's reducer size limit
	// q enforced at runtime.
	MaxReducerInput int

	// ReduceSplitPairs, when positive, splits reduce partitions heavier
	// than this many pairs into key ranges of roughly this
	// many pairs, planned from the resident run indexes and never
	// splitting a key group, which merge and reduce concurrently. The
	// output is byte-identical to the unsplit round. Zero or negative
	// keeps whole-partition merges.
	ReduceSplitPairs int

	// Recorder, when non-nil, captures the round's lifecycle as timed
	// events (see obs). It is process-local: a plan sent to proc workers
	// arrives without it. Nil keeps the hot path free of everything but
	// a nil check.
	Recorder *obs.Recorder
}

func (p Plan) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return max(runtime.NumCPU(), 1)
}

// Resolve returns p with Workers and Partitions replaced by their
// effective counts.
func (p Plan) Resolve() Plan {
	p.Workers = p.workers()
	p.Partitions = shuffle.PartitionCount(p.Partitions)
	return p
}

// TaskRange is one map task's input records [Lo, Hi).
type TaskRange struct{ Lo, Hi int }

// MapTasks cuts n inputs into map tasks of MapChunk records each.
func (p Plan) MapTasks(n int) []TaskRange {
	chunk := p.MapChunk
	if chunk <= 0 {
		chunk = max((n+4*p.workers()-1)/(4*p.workers()), 1)
	}
	var tasks []TaskRange
	for lo := 0; lo < n; lo += chunk {
		tasks = append(tasks, TaskRange{lo, min(lo+chunk, n)})
	}
	return tasks
}

// RangeFanout is the range-split rule for a reduce partition holding
// pairs pairs: zero (reduce it whole) unless a split target is set and
// the partition is above it; otherwise the most ranges it may be cut
// into, max(Workers, 2) — a split target is an explicit opt-in, so even
// one worker gets two ranges.
func (p Plan) RangeFanout(pairs int64) int {
	if p.ReduceSplitPairs <= 0 || pairs <= int64(p.ReduceSplitPairs) {
		return 0
	}
	return max(p.workers(), 2)
}

// ErrReducerOverflow is returned (wrapped) when a key group exceeds
// Plan.MaxReducerInput.
var ErrReducerOverflow = errors.New("engine: reducer input exceeds configured maximum")

// CheckReducerInput enforces MaxReducerInput against the largest key
// group of the named job's round, returning an error wrapping
// ErrReducerOverflow that names the job, the group's size and the limit.
func (p Plan) CheckReducerInput(job string, maxGroup int64) error {
	if q := p.MaxReducerInput; q > 0 && maxGroup > int64(q) {
		return fmt.Errorf("%w: job %q saw reducer with %d inputs, limit %d", ErrReducerOverflow, job, maxGroup, q)
	}
	return nil
}
