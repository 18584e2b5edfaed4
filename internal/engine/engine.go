// Package engine is the partitioned execution driver under the mr
// runtime: it runs one map-reduce round as a map phase fanning out to P
// shuffle partitions (internal/shuffle), schedules reduce *partitions*
// — not single keys — onto workers with the LPT balancer the paper's
// footnote 4 describes (core.BalanceLoads), and reports per-partition
// metrics, so the skew and replication-rate numbers the paper reasons
// about are measured on the real data path rather than reconstructed
// afterwards. Its task bodies (task.go: RunMapAttempt, PlanReduce,
// RunReduceAttempt) are the only ones: internal/proc's workers run them
// too, and its worker.go names where the two executors differ on purpose.
//
// The package is deliberately independent of internal/mr: mr's typed
// Job API is a thin veneer over Run, and multi-round pipelines (the
// paper's Section 6.3 two-phase matrix multiplication, the Section 7.1
// join-then-aggregate workloads) run round after round through
// mr.RunPipeline, each round reading the previous one's output Image.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// MapFunc transforms one input record into zero or more key-value
// pairs. It must be deterministic and side-effect free: the engine
// re-executes it when fault injection is enabled.
type MapFunc[I any, K comparable, V any] func(in I, emit func(K, V))

// ReduceFunc processes one reduce key with all its values.
type ReduceFunc[K comparable, V, O any] func(key K, values []V, emit func(O))

// CombineFunc optionally pre-aggregates one key's values inside a map
// task before shuffle, reducing communication. It must be semantically
// transparent: reduce(k, combine(vs)) == reduce(k, vs). A map task
// folds each key's values as they come (mapCombiner), and the shuffle
// re-combines at seal and compaction, so the combiner sees arbitrary
// prefixes of a key's values and its own partial results among them.
type CombineFunc[K comparable, V any] func(key K, values []V) []V

// Config controls the execution of one round: the Plan both executors
// honour, plus the settings only the in-process executor has.
type Config struct {
	Plan

	// SpillDir is the directory for spill run files (temp files,
	// deleted when the round finishes). Empty means no disk spill: with
	// a MemoryBudget, sealed runs stay in memory and only spill pressure
	// is reported.
	SpillDir string

	// FailureEveryN deterministically fails each task's first attempt
	// whenever the task ordinal is divisible by FailureEveryN; failed
	// tasks retry up to MaxRetries times (default 2 when injection is
	// on). Map tasks fail *after* emitting their output, so injection
	// exercises the map side's attempt fencing (the failed attempt's
	// sealed runs are released, the retry re-emits); reduce
	// tasks fail after collecting theirs, which the retry drops. Reduce
	// tasks are partitions; their ordinal counts non-empty partitions
	// in ascending order, so injection always hits at least one reduce
	// task regardless of how keys hashed.
	FailureEveryN int
	MaxRetries    int
}

// retry runs attempt 0, 1, ... until one succeeds, one fails with stop
// set, or the attempt after MaxRetries retries fails too. It returns
// how many attempts failed before the last one, and the last one's
// error.
func (c Config) retry(attempt func(a int) (err error, stop bool)) (int64, error) {
	maxRetries := c.MaxRetries
	if maxRetries <= 0 && c.FailureEveryN > 0 {
		maxRetries = 2
	}
	for a := 0; ; a++ {
		if err, stop := attempt(a); err == nil || stop || a >= maxRetries {
			return int64(a), err
		}
	}
}

// injects reports whether fault injection fails this attempt of the
// task with this ordinal.
func (c Config) injects(ordinal, attempt int) bool {
	return c.FailureEveryN > 0 && attempt == 0 && ordinal%c.FailureEveryN == 0
}

// Round is one typed map-reduce round: what Run executes in process,
// and what internal/proc registers to execute across worker processes
// (which take their plan from proc.Options, not from Config). Its
// functions must be deterministic and side-effect free: both executors
// re-execute tasks, and the outputs must not depend on which attempt
// won.
type Round[I any, K comparable, V, O any] struct {
	Name    string
	Map     MapFunc[I, K, V]
	Reduce  ReduceFunc[K, V, O]
	Combine CombineFunc[K, V] // optional

	// ReduceBatch, when set, replaces Reduce on the reduce path and
	// opts the round into the shuffle's batch read contract
	// (Partition.ForEachGroupBatch): each spilled group's value section
	// is read in one pass and decoded into a scratch slice that the
	// next group reuses, so the values slice is valid only during the
	// call — the function must not retain it (copy to keep). Reduce
	// stays the compatible default: its slices are the function's to
	// keep.
	ReduceBatch ReduceFunc[K, V, O]

	// Partitioner, when set, overrides hash placement of keys onto
	// shuffle partitions (reduced modulo the effective power-of-two
	// partition count). Schemas with an explicit reducer layout, and
	// tests that need to corner a key in its own partition, use this.
	// It must be a pure function of the key: across processes every
	// worker computes it.
	Partitioner func(K) int

	Config Config
}

// Reducer is the round's reduce function and whether it runs under the
// batch read contract (one value-section read and one batch decode per
// group, values valid only during the call): ReduceBatch when set,
// else Reduce. Both executors choose through it.
func (r Round[I, K, V, O]) Reducer() (ReduceFunc[K, V, O], bool) {
	if r.ReduceBatch != nil {
		return r.ReduceBatch, true
	}
	return r.Reduce, false
}

// Metrics is the profile of one executed round, the one record both
// executors fill: Run in process, internal/proc across worker
// processes. Its exchange profile — pairs shuffled, reducers, the
// realized q and its distribution, the partitions, and the spill and
// residency counters — is the embedded shuffle.Stats, which
// documents each field. All counts refer to logical records, matching
// the paper's convention that communication cost is measured in
// key-value pairs.
//
// A multi-process round has no in-process exchange, so it leaves that
// exchange's profile zero: Makespan, IdealMakespan, ReduceRangeSkew,
// the spill pressure (SpillEvents, SpilledPairs, RunsMerged,
// BytesReclaimed, MaxLivePairs) and the overlap timings. Its Partitions
// count each partition's pairs from the accepted map sections and fold
// its groups from the accepted reduce attempts (Worker stays -1), as
// ReducerInputLog2 does. There BytesSpilled, IndexBytesSpilled and
// DiskBytesRead are real bytes over the process boundary — the spool
// files that carried the shuffle, written by committed map attempts and
// read back by accepted reduce attempts — and PeakResidentPairs is the
// worst buffered-pair high-water mark any worker's task attempt
// observed, the same bound Plan.MemoryBudget enforces in process. In
// either executor a combiner map task's fold table (a slot per distinct
// key of the task, mapCombiner) is outside PeakResidentPairs and
// outside MemoryBudget.
type Metrics struct {
	// MapInputs is the number of input records consumed by the map phase.
	MapInputs int64
	// PairsEmitted is the number of key-value pairs produced by map tasks
	// before any combiner ran. This is the paper's communication cost;
	// PairsShuffled equals it without a combiner.
	PairsEmitted int64

	shuffle.Stats

	// Outputs is the number of records produced by the reduce phase.
	Outputs int64
	// MapRetries and ReduceRetries count task re-executions triggered by
	// fault injection (in process) or by worker death, lease expiry and
	// reported failures (across processes). TaskRetries is their sum —
	// the round's total re-grants beyond each task's first attempt.
	MapRetries    int64
	ReduceRetries int64
	TaskRetries   int64
	// WorkerDeaths counts worker processes that exited without being
	// asked to, and LeaseExpirations counts task leases the driver
	// fenced after missed heartbeats. Both are multi-process
	// fault-tolerance counters; in-process rounds leave them zero.
	WorkerDeaths     int64
	LeaseExpirations int64
	// SalvagedTasks counts multi-process map tasks whose committed
	// output was adopted from a dead worker's manifest instead of
	// re-executed.
	SalvagedTasks int64

	// Makespan is the LPT-scheduled heaviest worker load, in pairs;
	// IdealMakespan is the load-balance floor. Their ratio is the
	// residual skew the partitioning did not resolve. With
	// ReduceSplitPairs set both are computed over range units, so they
	// reflect the schedule actually executed.
	Makespan      int64
	IdealMakespan int64
	// ReduceRanges is the number of key-range units that split
	// partitions' reduce merges executed as under Plan.ReduceSplitPairs
	// (0 when splitting was off or no partition crossed the threshold);
	// ReduceRangeSkew is max/mean pair load across those units
	// (1 = perfectly balanced, 0 when unsplit) — the residual imbalance
	// the index-driven split could not remove without splitting a
	// group.
	ReduceRanges    int64
	ReduceRangeSkew float64
	// IndexBytesSpilled is the footer-index metadata written alongside
	// BytesSpilled; total spill file bytes are the sum of the two (0 in
	// process, where runs end at their last group, their index
	// resident).
	IndexBytesSpilled int64
	// SpillOverlapNs is the time map tasks' writers spent sealing runs
	// — sorting, combining, encoding and writing them — while map tasks
	// were running: work a collect-then-merge barrier would serialize
	// after the map phase. FinishDrainNs is the residual post-map
	// barrier: closing the spools and compacting.
	SpillOverlapNs int64
	FinishDrainNs  int64
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
	if len(m.Partitions) == 0 || m.PairsShuffled == 0 {
		return 0
	}
	var max int64
	for _, p := range m.Partitions {
		if p.Pairs > max {
			max = p.Pairs
		}
	}
	return float64(max) / (float64(m.PairsShuffled) / float64(len(m.Partitions)))
}

// String renders a one-line summary suitable for harness output: the
// logical quantities of LogicalString followed by the physical profile
// of the round — partition skew, spilled and re-read disk bytes, the
// resident-memory high-water mark, and how much spill work overlapped
// mapping. The physical fields depend on the executor, the placement
// seed (shuffle.WithSeed) and wall-clock timing; output that must be
// byte-reproducible across runs (the examples, golden files) prints
// LogicalString instead.
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
	reg.Counter("mr_index_bytes_spilled_total", "footer-index bytes written to spill files (0 in process: in-process runs have no footer)").Add(m.IndexBytesSpilled)
	reg.Counter("mr_disk_bytes_read_total", "bytes read back from spill files").Add(m.DiskBytesRead)
	reg.Counter("mr_bytes_reclaimed_total", "spill file bytes deleted while the job was still running").Add(m.BytesReclaimed)
	reg.Counter("mr_spill_overlap_ns_total", "nanoseconds of spill work overlapped with mapping").Add(m.SpillOverlapNs)
	reg.Counter("mr_finish_drain_ns_total", "nanoseconds spent in the post-map finish drain").Add(m.FinishDrainNs)

	reg.Gauge("mr_round_reducers", "distinct reduce keys of the last round").Set(float64(m.Reducers))
	reg.Gauge("mr_round_max_reducer_input", "largest reducer input of the last round (realized q)").Set(float64(m.MaxReducerInput))
	reg.Gauge("mr_round_replication_rate", "pairs emitted per map input of the last round (the paper's r)").Set(m.ReplicationRate())
	reg.Gauge("mr_round_partition_skew", "max/mean partition pairs of the last round").Set(m.PartitionSkew())
	reg.Gauge("mr_round_makespan_pairs", "heaviest reduce worker load of the last round, in pairs").Set(float64(m.Makespan))
	reg.Gauge("mr_round_peak_resident_pairs", "whole-round high-water mark of shuffle-resident pairs").Set(float64(m.PeakResidentPairs))
	reg.Gauge("mr_round_max_live_pairs", "largest buffer a map task held for one partition in the last round").Set(float64(m.MaxLivePairs))
	reg.Gauge("mr_round_reduce_ranges", "key-range units split partitions were cut into in the last round").Set(float64(m.ReduceRanges))
	reg.Gauge("mr_round_reduce_range_skew", "max/mean planned pair load across range units of the last round").Set(m.ReduceRangeSkew)

	h := reg.Histogram("mr_reducer_input_size", "reducer input sizes (the paper's q distribution), log2 buckets", 32)
	for i, n := range m.ReducerInputLog2 {
		h.ObserveN(int64(1)<<i, n)
	}
}

// Result is the outcome of one round. Its outputs are in global
// deterministic order — keys ascending (shuffle.SortKeys order),
// emission order within a key — in exactly one of two forms.
type Result[K comparable, O any] struct {
	// Outputs is the round's outputs copied into one slice, allocated
	// once at its exact size and filled in parallel from the image.
	// Set unless the round kept its image.
	Outputs []O
	// Image is the round's outputs left in the reduce units' collectors,
	// set instead of Outputs when Run is asked to keep it: the next
	// in-process round of a pipeline reads it as its input, and no
	// slice of the outputs is ever built.
	Image   *Image[O]
	Metrics Metrics
}

// errInjected marks a deterministic injected task failure.
var errInjected = errors.New("engine: injected task failure")

// Run executes one round over the records of in (SliceImage for a
// slice). With keep the outputs stay an image (Result.Image); otherwise
// they are copied into Result.Outputs. On error the returned Result
// still carries the metrics accumulated up to the failure point.
func Run[I any, K comparable, V, O any](r Round[I, K, V, O], in *Image[I], keep bool) (res Result[K, O], retErr error) {
	res.Metrics.MapInputs = int64(in.n)
	if err := shuffle.CheckTypes[K, V](r.Config.SpillDir != ""); err != nil {
		return res, fmt.Errorf("engine: round %q: %w", r.Name, err)
	}
	r.Config.Plan = r.Config.Resolve()
	cfg := r.Config
	if cfg.SpillDir != "" && cfg.MemoryBudget <= 0 {
		return res, fmt.Errorf(
			"engine: round %q sets SpillDir without a memory budget; set Config.MemoryBudget (pairs per partition) to enable spilling",
			r.Name)
	}

	sh := shuffle.New[K, V](shuffle.Options{
		Partitions:       cfg.Partitions,
		MaxBufferedPairs: cfg.MemoryBudget,
		SpillDir:         cfg.SpillDir,
		Recorder:         cfg.Recorder,
	})
	defer func() {
		if err := sh.Close(); err != nil && retErr == nil {
			retErr = fmt.Errorf("engine: removing spill files of round %q: %w", r.Name, err)
		}
	}()
	if r.Partitioner != nil {
		sh.SetPartitioner(r.Partitioner)
	}
	if r.Combine != nil {
		// Push the combiner down into the shuffle's sealing path: under
		// a memory budget each key group is combined again before a run
		// is sealed (and across runs during compaction), so spilled
		// bytes track the post-combine communication cost. Safe because
		// CombineFunc is required to be semantically transparent.
		sh.SetCombiner(r.Combine)
	}

	if err := runMapPhase(r, in, sh, &res.Metrics); err != nil {
		return res, err
	}

	st, ranges, err := PlanReduce(cfg.Plan, r.Name, sh)
	res.Metrics.Stats = st
	if err == nil {
		rlane := cfg.Recorder.Lane(obs.LaneRound, 0)
		rlane.Begin(obs.OpPhaseReduce, int64(len(st.Partitions)), 0)
		res, err = runReducePhase(r, sh, ranges, res, keep)
		rlane.End(obs.OpPhaseReduce, res.Metrics.Outputs, obs.ErrFlag(err))
	}
	res.Metrics.DiskBytesRead = sh.DiskBytesRead()
	return res, err
}

// runMapPhase executes map tasks in parallel, each over a range of the
// input image's records read in place. Each task attempt writes its
// output through its own shuffle writer, which seals sorted runs as its
// share of the budget fills, concurrently with the other tasks' mapping.
func runMapPhase[I any, K comparable, V, O any](r Round[I, K, V, O], in *Image[I], sh *shuffle.Shuffle[K, V], met *Metrics) (retErr error) {
	cfg := r.Config
	tasks := in.seek(cfg.MapTasks(in.n))
	// The map-phase span covers mapping plus Finish, so the
	// partition-lane seal spans inside it overlap worker map-task spans.
	rlane := cfg.Recorder.Lane(obs.LaneRound, 0)
	rlane.Begin(obs.OpPhaseMap, int64(len(tasks)), 0)
	defer func() { rlane.End(obs.OpPhaseMap, met.PairsEmitted, obs.ErrFlag(retErr)) }()

	ing := sh.NewIngester(cfg.Workers)
	emitted := make([]int64, len(tasks))
	retries := make([]int64, len(tasks))
	errs := make([]error, len(tasks))

	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wlane := cfg.Recorder.Lane(obs.LaneWorker, w)
			for ti := range taskCh {
				var fatal bool
				retries[ti], errs[ti] = cfg.retry(func(a int) (err error, _ bool) {
					wlane.Begin(obs.OpMapTask, int64(ti), int64(a))
					tw := ing.Task(ti, a)
					n := RunMapAttempt(r, in.read(tasks[ti]), tw.Emit)
					if cfg.injects(ti, a) {
						// Injected after the task emitted (and sealed) its
						// output: Abort releases its runs, and the retry
						// re-emits them.
						tw.Abort()
						n, err = 0, errInjected
					} else if err = tw.Commit(); err != nil {
						n, fatal = 0, true
					}
					emitted[ti] = n
					wlane.End(obs.OpMapTask, n, obs.ErrFlag(err))
					return err, fatal
				})
				if fatal {
					// A commit error is the round's ingestion failing (a
					// seal or a NaN key), which no retry mends.
					errs[ti] = fmt.Errorf("engine: shuffle ingest of round %q: %w", r.Name, errs[ti])
				} else if errs[ti] != nil {
					errs[ti] = fmt.Errorf("engine: map task %d of round %q failed after %d attempts: %w",
						ti, r.Name, retries[ti]+1, errs[ti])
				}
			}
		}(w)
	}
	for ti := range tasks {
		taskCh <- ti
	}
	close(taskCh)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for ti := range tasks {
		met.PairsEmitted += emitted[ti]
		met.MapRetries += retries[ti]
		met.TaskRetries += retries[ti]
	}
	if err := ing.Finish(); err != nil {
		return fmt.Errorf("engine: shuffle ingest of round %q: %w", r.Name, err)
	}
	met.SpillOverlapNs = ing.OverlapNs()
	met.FinishDrainNs = ing.FinishNs()
	return nil
}

// partResult is one reduced unit: its outputs per key, keys in sorted
// order, and its group profile.
type partResult[K comparable, O any] struct {
	out    Collector[K, O]
	groups shuffle.GroupProfile
}

// reduceUnit is one schedulable piece of the reduce phase: a whole
// partition (rng -1) or one planned key range of a split partition.
type reduceUnit struct {
	part int
	rng  int
}

// partReader lazily opens one partition's shared RangeReader and
// refcounts it across the partition's concurrently-executing units (its
// planned ranges, or the one whole-partition unit): the first active
// unit opens (taking the disk-read semaphore slot), the last active one
// closes. The slot is therefore held only
// while at least one unit of the partition is actually running, which
// is what keeps the semaphore deadlock-free under LPT's static
// per-worker unit queues.
type partReader[K comparable, V any] struct {
	mu    sync.Mutex
	part  shuffle.Partition[K, V]
	rr    *shuffle.RangeReader[K, V]
	users int
}

func (pr *partReader[K, V]) acquire() (*shuffle.RangeReader[K, V], error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.rr == nil {
		rr, err := pr.part.OpenRangeReader()
		if err != nil {
			return nil, err
		}
		pr.rr = rr
	}
	pr.users++
	return pr.rr, nil
}

func (pr *partReader[K, V]) release() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.users--; pr.users == 0 {
		pr.rr.Close() // read-only handles: Close cannot fail
		pr.rr = nil
	}
}

// runReducePhase schedules reduce units onto workers with the LPT
// balancer — whole non-empty partitions, or the key ranges PlanReduce
// cut a heavy one into, weighted by indexed pair load — reduces each unit's
// keys in sorted order into its own Collector, and merges the units'
// keys into the output image's global key order (newImage), which it
// copies into one slice unless keep. Every unit is one sorted key run
// and the image orders keys globally, so the output is byte-identical
// whether or not a partition was split. The units count the groups
// they reduce, and their profiles fold into the round's metrics, which
// hold the shuffle's totals (PlanReduce).
func runReducePhase[I any, K comparable, V, O any](r Round[I, K, V, O], sh *shuffle.Shuffle[K, V], ranges [][]shuffle.KeyRange[K], res Result[K, O], keep bool) (Result[K, O], error) {
	cfg := r.Config
	workers := cfg.Workers
	P := sh.NumPartitions()

	// One schedulable unit per partition — or per planned range —
	// weighted by indexed pair load, LPT-assigned to workers. With no
	// splits this degenerates to exactly the whole-partition schedule.
	var units []reduceUnit
	var loads []int
	for p := 0; p < P; p++ {
		if rs := ranges[p]; rs != nil {
			for i := range rs {
				units = append(units, reduceUnit{p, i})
				loads = append(loads, int(rs[i].Pairs))
			}
		} else {
			units = append(units, reduceUnit{p, -1})
			loads = append(loads, int(res.Metrics.Partitions[p].Pairs))
		}
	}
	assignment, makespan := core.BalanceLoads(loads, workers)
	res.Metrics.Makespan = makespan
	res.Metrics.IdealMakespan = core.IdealMakespan(loads, workers)
	perWorker := make([][]int, workers)
	var rangeUnits, maxRangeLoad, sumRangeLoad int64
	for u := range units {
		if units[u].rng <= 0 {
			// The partition's worker is where its first unit landed.
			res.Metrics.Partitions[units[u].part].Worker = assignment[u]
		}
		if units[u].rng >= 0 {
			rangeUnits++
			l := int64(loads[u])
			sumRangeLoad += l
			if l > maxRangeLoad {
				maxRangeLoad = l
			}
		}
		perWorker[assignment[u]] = append(perWorker[assignment[u]], u)
	}
	res.Metrics.ReduceRanges = rangeUnits
	if rangeUnits > 0 && sumRangeLoad > 0 {
		res.Metrics.ReduceRangeSkew = float64(maxRangeLoad) / (float64(sumRangeLoad) / float64(rangeUnits))
	}

	// Reduce-task ordinals: non-empty partitions in ascending order, so
	// fault injection is independent of key placement. A split
	// partition's injection fires on its first range unit only, keeping
	// the injected-failure count identical to the unsplit round.
	ordinal := make([]int, P)
	next := 0
	for p := 0; p < P; p++ {
		if res.Metrics.Partitions[p].Pairs > 0 {
			ordinal[p] = next
			next++
		} else {
			ordinal[p] = -1
		}
	}

	results := make([]partResult[K, O], len(units))
	readers := make([]partReader[K, V], P)
	for p := 0; p < P; p++ {
		readers[p].part = sh.Partition(p)
	}
	retries := make([]int64, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(perWorker[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, us []int) {
			defer wg.Done()
			wlane := cfg.Recorder.Lane(obs.LaneWorker, w)
			for _, u := range us {
				p, rng := units[u].part, units[u].rng
				if ordinal[p] < 0 {
					continue
				}
				// A whole-partition unit is the unbounded range of its
				// partition; only planned ranges get a range lane.
				var kr shuffle.KeyRange[K]
				var rlane *obs.Ring
				if rng >= 0 {
					kr = ranges[p][rng]
					rlane = cfg.Recorder.Lane(obs.LaneRange, u)
				}
				rr, err := readers[p].acquire()
				if err != nil {
					errs[u] = fmt.Errorf("engine: opening partition %d for reduce of round %q: %w", p, r.Name, err)
					continue
				}
				retries[u], errs[u] = cfg.retry(func(a int) (err error, _ bool) {
					wlane.Begin(obs.OpReduceTask, int64(p), int64(a))
					rlane.Begin(obs.OpReduceRange, int64(p), int64(rng))
					var pr partResult[K, O]
					pr.groups, err = RunReduceAttempt(r, rr, kr, &pr.out)
					// Injection fires after the unit reduced, so the retry
					// starts from a fresh collector, and on a partition's
					// first unit only, so a split round injects exactly as
					// many failures as an unsplit one.
					if err == nil && rng <= 0 && cfg.injects(ordinal[p], a) {
						err = errInjected
					}
					rlane.End(obs.OpReduceRange, int64(len(pr.out.keys)), obs.ErrFlag(err))
					wlane.End(obs.OpReduceTask, int64(len(pr.out.keys)), obs.ErrFlag(err))
					results[u] = pr
					return err, false
				})
				if errs[u] != nil {
					errs[u] = fmt.Errorf("engine: reduce partition %d (range %d) of round %q failed after %d attempts: %w",
						p, rng, r.Name, retries[u]+1, errs[u])
				}
				readers[p].release()
			}
		}(w, perWorker[w])
	}
	wg.Wait()

	for u := range units {
		if errs[u] != nil {
			// A failed unit counted nothing, so the per-key metrics of a
			// failed round come from the counting merge, as under the q
			// gate: resident indexes only, no run-file read. The
			// partitions stay where the schedule placed them.
			if full, err := sh.Stats(); err == nil {
				for p := range full.Partitions {
					full.Partitions[p].Worker = res.Metrics.Partitions[p].Worker
				}
				res.Metrics.Stats = full
			}
			return res, errs[u]
		}
		res.Metrics.ReduceRetries += retries[u]
		res.Metrics.TaskRetries += retries[u]
		res.Metrics.AddGroups(units[u].part, &results[u].groups)
	}

	im := newImage(results)
	res.Metrics.Outputs = int64(im.n)
	// The image holds its own chunks: free the shuffle's resident indexes
	// before an output slice is made (Run's deferred Close is a no-op).
	if err := sh.Close(); err != nil {
		return res, fmt.Errorf("engine: removing spill files of round %q: %w", r.Name, err)
	}
	if keep {
		res.Image = im
	} else {
		res.Outputs = im.assemble(workers, cfg.Recorder.Lane(obs.LaneRound, 0))
	}
	return res, nil
}
