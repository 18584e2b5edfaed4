// Package mr implements a small but complete in-process MapReduce runtime.
//
// The runtime exists so that the mapping schemas of Afrati, Das Sarma,
// Salihoglu and Ullman, "Upper and Lower Bounds on the Cost of a Map-Reduce
// Computation" (VLDB 2013), can be executed rather than merely analyzed: a
// Job runs a map phase, a shuffle, and a reduce phase over real data, while
// Metrics records exactly the quantities the paper reasons about — the
// number of key-value pairs communicated between the phases (from which the
// replication rate is derived) and the number of inputs each reducer
// receives (the paper's reducer size q).
//
// The engine is deliberately faithful to the paper's cost model rather than
// to any particular distributed implementation: mappers work on input
// records independently, every emitted pair is counted as communication,
// and a "reducer" is one reduce key together with its list of values.
// Parallelism is real (worker goroutines), and the engine supports
// combiners, custom partitioners, multi-round pipelines, and deterministic
// fault injection with task retry, so that tests can exercise the
// fault-tolerance path that defines MapReduce.
//
// Execution happens on the partitioned shuffle executor (internal/engine
// over internal/shuffle): map tasks pre-bucket their output into P hash
// partitions, the exchange merges one goroutine per partition, and reduce
// partitions — not single keys — are scheduled onto workers with the LPT
// balancer of the paper's footnote 4. Job is the stable typed veneer over
// that subsystem; its outputs remain in global deterministic key order and
// its Metrics additionally expose the per-partition profile of the real
// exchange.
//
// Reproducibility contract: outputs and the paper's logical quantities
// (pairs emitted/shuffled, reducers, max q, replication rate, reducer
// loads) are identical across runs. So is the *physical* profile —
// which key lands in which partition, and therefore Metrics.Partitions,
// Makespan, and retry counts under fault injection: placement is the
// shuffle's stable key hash under seed 0 (shuffle.WithSeed sets another
// in tests), the same in every process. Pin ShufflePartition for an
// explicit layout.
package mr

import (
	"repro/internal/engine"
	"repro/internal/obs"
)

// MapFunc transforms one input record into zero or more key-value pairs.
// It must be deterministic and side-effect free: the engine may re-execute
// it when fault injection is enabled.
type MapFunc[I any, K comparable, V any] = engine.MapFunc[I, K, V]

// ReduceFunc processes one reduce key together with all values that were
// emitted for it, producing zero or more output records. Like MapFunc it
// must be deterministic so that retried tasks produce identical results.
type ReduceFunc[K comparable, V, O any] = engine.ReduceFunc[K, V, O]

// CombineFunc optionally pre-aggregates the values for one key inside a
// single map task before shuffle; see engine.CombineFunc for the
// transparency it must keep.
type CombineFunc[K comparable, V any] = engine.CombineFunc[K, V]

// Config controls the execution of a Job. Its fields are flat for
// callers; Run resolves Workers, MapChunk, Partitions, MemoryBudget,
// MaxReducerInput, ReduceSplitPairs and Recorder into one engine.Plan
// and hands that to whichever executor runs the job, so those settings
// default and derive identically in process and in ProcMode.
type Config struct {
	// Workers is the number of parallel map (and reduce) workers —
	// worker processes in ProcMode. Zero means runtime.NumCPU().
	Workers int

	// MapChunk is the number of input records grouped into one map task.
	// Zero means an automatic chunk size targeting ~4 tasks per worker.
	MapChunk int

	// Partitions is the number of shuffle partitions the executor fans
	// the key space into; reduce partitions are the unit of scheduling.
	// The effective count is rounded up to a power of two (so Metrics
	// may report more partitions than requested). Zero or negative
	// selects shuffle.DefaultPartitions().
	Partitions int

	// MemoryBudget is the per-partition memory budget, in buffered
	// pairs: a map task's buffer for one partition seals as a run on
	// reaching it, and the round's map tasks buffer at most Partitions
	// times it together.
	// Together with SpillDir this makes datasets much larger than
	// memory executable; alone it reports spill pressure with sealed
	// runs kept in memory. In ProcMode each map worker seals to its
	// spool files under the budget.
	MemoryBudget int

	// SpillDir, when set together with MemoryBudget, directs sealed
	// runs to temp run files under this directory (deleted when the
	// job finishes). Reduce partitions then stream a k-way merge over
	// their runs instead of materializing the partition.
	// SpillDir without a budget is a configuration error, and spilling
	// requires a key type whose equality survives an encode/decode
	// round trip (no unexported fields).
	SpillDir string

	// ReduceSplitPairs, when positive, splits reduce partitions heavier
	// than this many pairs into key-range units — at most
	// max(Workers, 2) per partition — that merge and reduce
	// concurrently (planned from the resident run indexes). Outputs are
	// byte-identical to the unsplit round; only scheduling granularity
	// changes.
	ReduceSplitPairs int

	// MaxReducerInput, when positive, makes the job fail if any reduce key
	// receives more than this many values, in either executor with an
	// error wrapping engine.ErrReducerOverflow. It enforces the paper's
	// reducer size limit q at runtime.
	MaxReducerInput int

	// FailureEveryN, when positive, deterministically fails each task's
	// first attempt whenever the task index is divisible by FailureEveryN.
	// Failed tasks are retried up to MaxRetries times. This exercises the
	// engine's fault-tolerance path without nondeterminism. Reduce tasks
	// are shuffle partitions; their index counts non-empty partitions in
	// ascending order.
	FailureEveryN int

	// MaxRetries is the number of retries granted to a failing task.
	// Zero means 2 when FailureEveryN is set.
	MaxRetries int

	// Recorder, when non-nil, captures the job's round as a timeline:
	// phase boundaries, per-worker map/reduce task spans, and the
	// shuffle's seal/fence/compaction/merge activity per partition.
	// Export after Run with obs.WriteTrace (Chrome trace JSON) or feed
	// the job's Metrics to a registry with Metrics.PublishTo. Nil (the
	// default) records nothing and costs nothing on the data path.
	Recorder *obs.Recorder

	// ProcMode executes the job across worker operating-system
	// processes (internal/proc) instead of goroutines: Workers becomes
	// a process count, the shuffle becomes per-partition spool files on
	// disk, and the run survives kill -9 of workers mid-round via
	// lease fencing and manifest salvage. The job must be registered
	// with RegisterProc in both the driver and worker binaries (by
	// default the same binary, re-executed; see proc.MaybeWorker).
	// Every plan setting carries over with the same defaults — each map
	// worker runs its own streaming shuffle under the budget, so worker
	// residency obeys the same bound the in-process engine proves
	// (Metrics.PeakResidentPairs reports the worst attempt), and the
	// spool files ARE the spill. The in-process-only settings SpillDir,
	// FailureEveryN and MaxRetries are a configuration error here. The
	// run has no deadline, as in process: lease expiry fences a dead or
	// silent worker and a task gets a bounded number of attempts.
	// Outputs are identical either way.
	ProcMode bool
	// ProcDir is the ProcMode scratch directory (spools, manifests,
	// socket). Empty uses a private temp dir removed after the run.
	ProcDir string
}

// plan is the engine.Plan the job's executor runs under.
func (c Config) plan() engine.Plan {
	return engine.Plan{
		Workers:          c.Workers,
		Partitions:       c.Partitions,
		MapChunk:         c.MapChunk,
		MemoryBudget:     c.MemoryBudget,
		MaxReducerInput:  c.MaxReducerInput,
		ReduceSplitPairs: c.ReduceSplitPairs,
		Recorder:         c.Recorder,
	}
}

// Metrics records the communication profile of one executed round, in
// process or in ProcMode: both executors fill the one engine.Metrics.
type Metrics = engine.Metrics

// Job is a single-round MapReduce computation from inputs of type I,
// through keys K and values V, to outputs of type O.
type Job[I any, K comparable, V, O any] struct {
	Name    string
	Map     MapFunc[I, K, V]
	Reduce  ReduceFunc[K, V, O]
	Combine CombineFunc[K, V] // optional
	// ReduceBatch, when set, replaces Reduce and opts the job into the
	// executor's batch reduce path: each spilled key group's value
	// section is read in one pass and decoded into a reused scratch
	// slice, so the values slice is valid only during the call — the
	// function must not retain it (copy to keep). Outputs are
	// identical to Reduce; only the allocation contract differs.
	// Reduce remains the compatible default for functions that read
	// their values after the call returns.
	ReduceBatch ReduceFunc[K, V, O]
	// ShufflePartition, when set, overrides hash placement of keys onto
	// the executor's shuffle partitions, reduced modulo the effective
	// partition count (Config.Partitions rounded up to a power of two).
	// Schemas with an explicit reducer layout, and tests that need to
	// pin a key to a partition, use this. It does not change outputs,
	// only the physical exchange.
	ShufflePartition func(K) int
	Config           Config
}

// Run executes the job over inputs and returns the reduce outputs together
// with the round's metrics. K, and every type that reaches disk or another
// process, must be bools, numbers and strings, through structs and arrays, or
// (not K) a bare []byte; Run names a type that is not before any map task runs
// (shuffle.CheckTypes, runfile.CheckCodec), and a NaN key fails the round.
// Output order is deterministic: keys in canonical order (shuffle.SortKeys),
// one group each, outputs in emission order.
func (j *Job[I, K, V, O]) Run(inputs []I) ([]O, Metrics, error) {
	out, met, err := jobRound[I, K, V, O]{j}.runAny(inputs, false)
	outs, _ := out.([]O)
	return outs, met, err
}

// round is the job as the engine.Round both executors run.
func (j *Job[I, K, V, O]) round() engine.Round[I, K, V, O] {
	return engine.Round[I, K, V, O]{
		Name:        j.Name,
		Map:         j.Map,
		Reduce:      j.Reduce,
		Combine:     j.Combine,
		ReduceBatch: j.ReduceBatch,
		Partitioner: j.ShufflePartition,
		Config: engine.Config{
			Plan:          j.Config.plan(),
			SpillDir:      j.Config.SpillDir,
			FailureEveryN: j.Config.FailureEveryN,
			MaxRetries:    j.Config.MaxRetries,
		},
	}
}

// runEngine executes the job in process on the shuffle engine over the
// records of in. With keep its outputs stay where the reduce units
// collected them, as a kept[O]; otherwise they are a []O.
func (j *Job[I, K, V, O]) runEngine(in *engine.Image[I], keep bool) (any, Metrics, error) {
	res, err := engine.Run(j.round(), in, keep)
	var out any = res.Outputs
	if keep {
		out = kept[O]{res.Image}
	}
	return out, res.Metrics, err
}
