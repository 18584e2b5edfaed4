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
// loads) are identical across runs. The *physical* profile — which key
// lands in which partition, and therefore Metrics.Partitions, Makespan,
// and retry counts under fault injection — depends on the shuffle's
// per-process hash seed, as in a real cluster. Pin ShufflePartition for
// a fully reproducible exchange, or shuffle.WithSeed in tests that
// assert on the physical profile.
package mr

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// MapFunc transforms one input record into zero or more key-value pairs.
// It must be deterministic and side-effect free: the engine may re-execute
// it when fault injection is enabled.
type MapFunc[I any, K comparable, V any] func(in I, emit func(K, V))

// ReduceFunc processes one reduce key together with all values that were
// emitted for it, producing zero or more output records. Like MapFunc it
// must be deterministic so that retried tasks produce identical results.
type ReduceFunc[K comparable, V, O any] func(key K, values []V, emit func(O))

// CombineFunc optionally pre-aggregates the values for one key inside a
// single map task before shuffle, reducing communication. It must be
// semantically transparent: reduce(k, combine(vs)) == reduce(k, vs).
// A map task folds a key's values as they arrive — it calls the
// combiner on every few values gathered, again on those partial results
// with later values, and once at the task's end — and the shuffle
// re-combines at seal and compaction, so the combiner sees arbitrary
// prefixes of a key's values and its own outputs among them.
type CombineFunc[K comparable, V any] func(key K, values []V) []V

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
	// pairs: a shuffle partition whose live buffer reaches the budget
	// seals its run, so live buffered pairs never exceed the budget.
	// Together with SpillDir this makes datasets much larger than
	// memory executable; alone it reports spill pressure with sealed
	// runs kept in memory. In ProcMode each map worker seals to its
	// spool files under the budget.
	MemoryBudget int

	// SpillDir, when set together with MemoryBudget, directs sealed
	// runs to temp run files under this directory (deleted when the
	// job finishes). Reduce partitions then stream a k-way merge over
	// disk and live runs instead of materializing the partition.
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
	// receives more than this many values. It enforces the paper's reducer
	// size limit q at runtime.
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

// Metrics records the communication profile of one executed round. All
// counts refer to logical records, matching the paper's convention that
// communication cost is measured in key-value pairs.
type Metrics struct {
	// MapInputs is the number of input records consumed by the map phase.
	MapInputs int64
	// PairsEmitted is the number of key-value pairs produced by map tasks
	// before any combiner ran. This is the paper's communication cost.
	PairsEmitted int64
	// PairsShuffled is the number of pairs actually sent to the reduce
	// phase, after combining. Equal to PairsEmitted without a combiner.
	PairsShuffled int64
	// Reducers is the number of distinct reduce keys ("reducers" in the
	// paper's sense: a key plus its list of values).
	Reducers int64
	// MaxReducerInput is the largest number of values any one reduce key
	// received — the realized reducer size q.
	MaxReducerInput int64
	// TotalReducerInput is the sum over reducers of their input sizes;
	// equal to PairsShuffled.
	TotalReducerInput int64
	// Outputs is the number of records produced by the reduce phase.
	Outputs int64
	// MapRetries and ReduceRetries count task re-executions triggered by
	// fault injection (in-process) or by worker death and lease expiry
	// (ProcMode). TaskRetries is their sum — the round's
	// total re-grants beyond each task's first attempt.
	MapRetries    int64
	ReduceRetries int64
	TaskRetries   int64
	// WorkerDeaths counts worker processes that exited without being
	// asked to, and LeaseExpirations counts task leases the driver
	// fenced after missed heartbeats. Both are ProcMode fault-tolerance
	// counters; in-process rounds leave them zero.
	WorkerDeaths     int64
	LeaseExpirations int64
	// SalvagedTasks counts ProcMode map tasks whose committed output
	// was adopted from a dead worker's manifest instead of re-executed.
	SalvagedTasks int64

	// Partitions is the per-partition profile of the real exchange: the
	// pairs, distinct keys, largest key group, and assigned reduce
	// worker of every shuffle partition. Under the default hash
	// placement the profile varies with the per-process seed (see the
	// package's reproducibility contract).
	Partitions []engine.PartitionStat
	// Makespan is the heaviest reduce worker's pair load under the LPT
	// partition schedule; IdealMakespan is the load-balance floor.
	Makespan      int64
	IdealMakespan int64
	// SpillEvents and SpilledPairs report bounded-memory pressure when
	// a memory budget was set. BytesSpilled and RunsMerged report the
	// realized disk traffic and reduce-time merge width when SpillDir
	// made the spills real; with a Combine func the spilled volume
	// tracks the post-combine communication cost, since the combiner
	// is also applied inside the shuffle whenever a run seals.
	// DiskBytesRead is the total read back from spill files over the
	// round — profiling is index-backed and memory-only, so this
	// measures the reduce-time merge alone. MaxLivePairs is the
	// high-water mark of any partition's live buffer — under a budget
	// it never exceeds the budget, which is the runtime's
	// bounded-memory guarantee.
	// IndexBytesSpilled is the footer-index metadata written alongside
	// BytesSpilled (run-file format v2); total spill file bytes are
	// the sum of the two.
	SpillEvents       int64
	SpilledPairs      int64
	BytesSpilled      int64
	IndexBytesSpilled int64
	RunsMerged        int64
	DiskBytesRead     int64
	// SwapBytes is pressure-relief traffic the streaming path staged to
	// swap stash files and read back verbatim — bookkeeping, reported
	// separately so BytesSpilled stays the deterministic communication
	// cost. BytesReclaimed is the total size of spill files deleted
	// while the job was still running (spool rotation, compaction
	// retiring inputs): disk returned before teardown.
	SwapBytes      int64
	BytesReclaimed int64
	MaxLivePairs   int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// resident in shuffle memory. On the default streaming path with a
	// SpillDir it stays bounded by P*MemoryBudget plus one block per
	// map worker — the dataset size never enters the bound.
	// SpillOverlapNs is shuffle absorb/seal/spill work that overlapped
	// still-running map tasks; FinishDrainNs is the residual post-map
	// drain.
	PeakResidentPairs int64
	SpillOverlapNs    int64
	FinishDrainNs     int64
	// ReduceRanges is how many key-range units split partitions were cut
	// into under Config.ReduceSplitPairs (zero when splitting was off or
	// no partition crossed the threshold). ReduceRangeSkew is max/mean
	// planned pair load across those range units.
	ReduceRanges    int64
	ReduceRangeSkew float64
	// ReducerInputLog2 is the log2-bucketed distribution of reducer
	// input sizes — the paper's q distribution as realized by this
	// round. Bucket i counts the reducers whose input size lies in
	// [2^i, 2^(i+1)); the slice is trimmed after the last non-empty
	// bucket.
	ReducerInputLog2 []int64
}

// ReplicationRate is the average number of key-value pairs created per map
// input: the paper's replication rate r for this round.
func (m Metrics) ReplicationRate() float64 {
	if m.MapInputs == 0 {
		return 0
	}
	return float64(m.PairsEmitted) / float64(m.MapInputs)
}

// PartitionSkew is the heaviest partition's pair count over the mean
// (1 = perfectly even exchange, 0 = empty).
func (m Metrics) PartitionSkew() float64 {
	return engine.Metrics{Partitions: m.Partitions, PairsShuffled: m.PairsShuffled}.PartitionSkew()
}

// String renders a one-line summary suitable for harness output: the
// logical quantities of LogicalString followed by the physical profile
// of the round — partition skew, spilled and re-read disk bytes, the
// resident-memory high-water mark, and how much spill work overlapped
// mapping. The physical fields depend on the per-process hash seed and
// on wall-clock timing; output that must be byte-reproducible across
// runs (the examples, golden files) prints LogicalString instead.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"%s skew=%.2f spilled=%dB read=%dB peakResident=%d overlap=%dms retries=%d deaths=%d leasesExpired=%d",
		m.LogicalString(), m.PartitionSkew(), m.BytesSpilled, m.DiskBytesRead,
		m.PeakResidentPairs, m.SpillOverlapNs/1e6,
		m.TaskRetries, m.WorkerDeaths, m.LeaseExpirations)
}

// LogicalString renders only the paper's logical quantities — inputs,
// pairs emitted, reducers, realized q, replication rate — which are
// identical on every run of the same job regardless of hash seed,
// worker count, or timing.
func (m Metrics) LogicalString() string {
	return fmt.Sprintf("inputs=%d pairs=%d reducers=%d maxq=%d r=%.4f",
		m.MapInputs, m.PairsEmitted, m.Reducers, m.MaxReducerInput, m.ReplicationRate())
}

// PublishTo folds the round's metrics into a metrics registry:
// cumulative counters accumulate across rounds (counts, spilled and
// re-read bytes, retries, overlap time), per-round gauges overwrite
// with this round's profile (reducers, realized q, replication rate,
// skew, makespan, resident peak), and the reducer-input histogram
// receives the round's q distribution. Metric names are stable; see
// the README's observability section for the full reference. Safe to
// call once per round from the process that scrapes or serves reg
// (obs.Serve mounts it on /metrics).
func (m Metrics) PublishTo(reg *obs.Registry) {
	reg.Counter("mr_rounds_total", "map-reduce rounds executed").Add(1)
	reg.Counter("mr_map_inputs_total", "input records consumed by map phases").Add(m.MapInputs)
	reg.Counter("mr_pairs_emitted_total", "key-value pairs emitted by map tasks (pre-combine communication cost)").Add(m.PairsEmitted)
	reg.Counter("mr_pairs_shuffled_total", "pairs crossing the exchange post-combine").Add(m.PairsShuffled)
	reg.Counter("mr_outputs_total", "records produced by reduce phases").Add(m.Outputs)
	reg.Counter("mr_map_retries_total", "map task re-executions").Add(m.MapRetries)
	reg.Counter("mr_reduce_retries_total", "reduce task re-executions").Add(m.ReduceRetries)
	reg.Counter("mr_task_retries_total", "task re-grants beyond each task's first attempt").Add(m.TaskRetries)
	reg.Counter("mr_worker_deaths_total", "worker processes that died mid-job (ProcMode)").Add(m.WorkerDeaths)
	reg.Counter("mr_lease_expired_total", "task leases fenced after missed heartbeats (ProcMode)").Add(m.LeaseExpirations)
	reg.Counter("mr_tasks_salvaged_total", "map tasks adopted from dead workers' manifests (ProcMode)").Add(m.SalvagedTasks)
	reg.Counter("mr_spill_events_total", "shuffle runs sealed under memory pressure").Add(m.SpillEvents)
	reg.Counter("mr_spilled_pairs_total", "pairs written to sealed runs").Add(m.SpilledPairs)
	reg.Counter("mr_bytes_spilled_total", "run data bytes written to spill files").Add(m.BytesSpilled)
	reg.Counter("mr_index_bytes_spilled_total", "footer-index bytes written to spill files").Add(m.IndexBytesSpilled)
	reg.Counter("mr_disk_bytes_read_total", "bytes read back from spill files").Add(m.DiskBytesRead)
	reg.Counter("mr_swap_bytes_total", "pressure-relief bytes staged to swap stash files").Add(m.SwapBytes)
	reg.Counter("mr_bytes_reclaimed_total", "spill file bytes deleted while the job was still running").Add(m.BytesReclaimed)
	reg.Counter("mr_spill_overlap_ns_total", "nanoseconds of spill work overlapped with mapping").Add(m.SpillOverlapNs)
	reg.Counter("mr_finish_drain_ns_total", "nanoseconds spent in the post-map finish drain").Add(m.FinishDrainNs)

	reg.Gauge("mr_round_reducers", "distinct reduce keys of the last round").Set(float64(m.Reducers))
	reg.Gauge("mr_round_max_reducer_input", "largest reducer input of the last round (realized q)").Set(float64(m.MaxReducerInput))
	reg.Gauge("mr_round_replication_rate", "pairs emitted per map input of the last round (the paper's r)").Set(m.ReplicationRate())
	reg.Gauge("mr_round_partition_skew", "max/mean partition pairs of the last round").Set(m.PartitionSkew())
	reg.Gauge("mr_round_makespan_pairs", "heaviest reduce worker load of the last round, in pairs").Set(float64(m.Makespan))
	reg.Gauge("mr_round_peak_resident_pairs", "whole-round high-water mark of shuffle-resident pairs").Set(float64(m.PeakResidentPairs))
	reg.Gauge("mr_round_max_live_pairs", "high-water mark of any partition's live buffer in the last round").Set(float64(m.MaxLivePairs))
	reg.Gauge("mr_round_reduce_ranges", "key-range units split partitions were cut into in the last round").Set(float64(m.ReduceRanges))
	reg.Gauge("mr_round_reduce_range_skew", "max/mean planned pair load across range units of the last round").Set(m.ReduceRangeSkew)

	h := reg.Histogram("mr_reducer_input_size", "reducer input sizes (the paper's q distribution), log2 buckets", 32)
	for i, n := range m.ReducerInputLog2 {
		h.ObserveN(int64(1)<<i, n)
	}
}

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

// ErrReducerOverflow is returned (wrapped) when a reduce key exceeds the
// configured MaxReducerInput.
var ErrReducerOverflow = errors.New("mr: reducer input exceeds configured maximum")

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

// runEngine executes the job in process on the shuffle engine over the
// records of in. With keep its outputs stay where the reduce units
// collected them, as a kept[O]; otherwise they are a []O.
func (j *Job[I, K, V, O]) runEngine(in *engine.Image[I], keep bool) (any, Metrics, error) {
	round := engine.Round[I, K, V, O]{
		Name:        j.Name,
		Map:         engine.MapFunc[I, K, V](j.Map),
		Reduce:      engine.ReduceFunc[K, V, O](j.Reduce),
		Partitioner: j.ShufflePartition,
		Config: engine.Config{
			Plan:          j.Config.plan(),
			SpillDir:      j.Config.SpillDir,
			FailureEveryN: j.Config.FailureEveryN,
			MaxRetries:    j.Config.MaxRetries,
		},
	}
	if j.Combine != nil {
		round.Combine = engine.CombineFunc[K, V](j.Combine)
	}
	if j.ReduceBatch != nil {
		round.ReduceBatch = engine.ReduceFunc[K, V, O](j.ReduceBatch)
	}

	res, err := engine.Run(round, in, keep)
	var out any = res.Outputs
	if keep {
		out = kept[O]{res.Image}
	}
	return out, Metrics{
		MapInputs:         res.Metrics.MapInputs,
		PairsEmitted:      res.Metrics.PairsEmitted,
		PairsShuffled:     res.Metrics.PairsShuffled,
		Reducers:          res.Metrics.Reducers,
		MaxReducerInput:   res.Metrics.MaxReducerInput,
		TotalReducerInput: res.Metrics.TotalReducerInput,
		Outputs:           res.Metrics.Outputs,
		MapRetries:        res.Metrics.MapRetries,
		ReduceRetries:     res.Metrics.ReduceRetries,
		TaskRetries:       res.Metrics.MapRetries + res.Metrics.ReduceRetries,
		Partitions:        res.Metrics.Partitions,
		Makespan:          res.Metrics.Makespan,
		IdealMakespan:     res.Metrics.IdealMakespan,
		SpillEvents:       res.Metrics.SpillEvents,
		SpilledPairs:      res.Metrics.SpilledPairs,
		BytesSpilled:      res.Metrics.BytesSpilled,
		IndexBytesSpilled: res.Metrics.IndexBytesSpilled,
		RunsMerged:        res.Metrics.RunsMerged,
		DiskBytesRead:     res.Metrics.DiskBytesRead,
		SwapBytes:         res.Metrics.SwapBytes,
		BytesReclaimed:    res.Metrics.BytesReclaimed,
		MaxLivePairs:      res.Metrics.MaxLivePairs,
		PeakResidentPairs: res.Metrics.PeakResidentPairs,
		SpillOverlapNs:    res.Metrics.SpillOverlapNs,
		FinishDrainNs:     res.Metrics.FinishDrainNs,
		ReduceRanges:      res.Metrics.ReduceRanges,
		ReduceRangeSkew:   res.Metrics.ReduceRangeSkew,
		ReducerInputLog2:  res.Metrics.ReducerInputLog2,
	}, err
}
