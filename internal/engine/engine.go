// Package engine is the partitioned execution driver under the mr
// runtime: it runs one map-reduce round as a map phase fanning out to P
// shuffle partitions (internal/shuffle), schedules reduce *partitions*
// — not single keys — onto workers with the LPT balancer the paper's
// footnote 4 describes (core.BalanceLoads), and reports per-partition
// metrics, so the skew and replication-rate numbers the paper reasons
// about are measured on the real data path rather than reconstructed
// afterwards.
//
// The package is deliberately independent of internal/mr: mr's typed
// Job API is a thin veneer over Run, and multi-round pipelines (the
// paper's Section 6.3 two-phase matrix multiplication, the Section 7.1
// join-then-aggregate workloads) execute as a DAG of rounds through
// Graph.
package engine

import (
	"errors"
	"fmt"
	"runtime"
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
// task before shuffle.
type CombineFunc[K comparable, V any] func(key K, values []V) []V

// Config controls the execution of one round.
type Config struct {
	// Workers is the number of parallel map (and reduce) workers.
	// Zero means runtime.NumCPU().
	Workers int

	// MapChunk is the number of input records per map task. Zero means
	// an automatic chunk targeting ~4 tasks per worker.
	MapChunk int

	// Partitions is the shuffle partition count P; <= 0 selects
	// shuffle.DefaultPartitions().
	Partitions int

	// MemoryBudget is the per-partition memory budget in buffered
	// pairs: a shuffle partition whose live buffer reaches the budget
	// seals its run. With SpillDir set, sealed runs are encoded to
	// disk and reduce partitions stream a k-way merge over them;
	// without it sealed runs stay in memory and only spill pressure is
	// reported.
	MemoryBudget int

	// SpillDir is the directory for spill run files (temp files,
	// deleted when the round finishes). Empty means no disk spill.
	SpillDir string

	// MaxReducerInput, when positive, fails the round before the reduce
	// phase if any key group exceeds it (the paper's reducer size limit
	// q enforced at runtime).
	MaxReducerInput int

	// RecordLoads asks for per-reducer input sizes in global sorted key
	// order; RecordKeys additionally exports the keys themselves.
	RecordLoads bool
	RecordKeys  bool

	// FailureEveryN deterministically fails each task's first attempt
	// whenever the task ordinal is divisible by FailureEveryN; failed
	// tasks retry up to MaxRetries times (default 2 when injection is
	// on). Map tasks fail *after* emitting their output, so injection
	// exercises the streaming path's attempt fencing (flushed pairs of
	// the failed attempt are discarded, the retry re-emits). Reduce
	// tasks are partitions; their ordinal counts non-empty partitions
	// in ascending order, so injection always hits at least one reduce
	// task regardless of how keys hashed.
	FailureEveryN int
	MaxRetries    int

	// ReduceSplitPairs, when positive, splits heavy reduce partitions'
	// merges into class-aligned key ranges of roughly this many pairs —
	// planned from the resident run indexes, never splitting a key
	// group — and LPT-schedules the range units, not whole partitions,
	// onto the reduce workers. Disjoint ranges of one partition then
	// merge and reduce concurrently over a shared read surface (one set
	// of spool handles and mmaps per partition), and the output is
	// byte-identical to the unsplit round: ranges reassemble in key
	// order before global assembly. Zero or negative keeps
	// whole-partition scheduling.
	ReduceSplitPairs int
	// ReduceRangeConcurrency caps how many ranges one partition may be
	// split into — the partition's maximum reduce parallelism. Zero
	// means the worker count.
	ReduceRangeConcurrency int

	// Recorder, when non-nil, captures the round's lifecycle as timed
	// events: phase boundaries on the round lane, map/reduce task
	// attempts on per-worker lanes, and the shuffle's block flushes,
	// seals, fences, compactions and reduce merges on per-partition
	// lanes (the shuffle inherits the same recorder). Export with
	// obs.WriteTrace / obs.WritePrometheus after Run returns. Nil keeps
	// the hot path free of everything but a nil check.
	Recorder *obs.Recorder
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	if c.FailureEveryN > 0 {
		return 2
	}
	return 0
}

// Round is one typed map-reduce round.
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
	Partitioner func(K) int

	Config Config
}

// PartitionStat is the realized profile of one shuffle partition.
type PartitionStat struct {
	// Pairs and Keys are the partition's share of the shuffle.
	Pairs int64
	Keys  int64
	// MaxGroup is the partition's largest key group (its local q).
	MaxGroup int64
	// Worker is the reduce worker the LPT scheduler placed the
	// partition on (-1 when the round failed before scheduling).
	Worker int
}

// Metrics is the communication profile of one executed round. The
// scalar fields mirror the paper's quantities; Partitions carries the
// per-partition breakdown from the real exchange.
type Metrics struct {
	MapInputs         int64
	PairsEmitted      int64 // pre-combine: the paper's communication cost
	PairsShuffled     int64 // post-combine pairs crossing the exchange
	Reducers          int64 // distinct keys
	MaxReducerInput   int64 // realized q
	TotalReducerInput int64
	Outputs           int64
	MapRetries        int64
	ReduceRetries     int64

	// Partitions is the per-partition profile (length P).
	Partitions []PartitionStat
	// Makespan is the LPT-scheduled heaviest worker load, in pairs;
	// IdealMakespan is the load-balance floor. Their ratio is the
	// residual skew the partitioning did not resolve. With
	// ReduceSplitPairs set both are computed over range units, so they
	// reflect the schedule actually executed.
	Makespan      int64
	IdealMakespan int64
	// ReduceRanges is the number of key-range units that split
	// partitions' reduce merges executed as (0 when no partition was
	// split); ReduceRangeSkew is max/mean pair load across those units
	// (1 = perfectly balanced, 0 when unsplit) — the residual imbalance
	// the index-driven split could not remove without splitting a
	// group.
	ReduceRanges    int64
	ReduceRangeSkew float64
	// SpillEvents and SpilledPairs report bounded-memory pressure;
	// BytesSpilled and RunsMerged report the realized disk traffic and
	// reduce-time merge width when a SpillDir made the spills real.
	// DiskBytesRead is the total read back from spill run files over
	// the whole round — profiling (Stats) and overflow diagnosis merge
	// resident run indexes in memory and contribute nothing to it, so
	// it measures the reduce merge (plus compaction re-reads) alone.
	// IndexBytesSpilled is the footer-index metadata written alongside
	// BytesSpilled; total spill file bytes are the sum of the two.
	SpillEvents       int64
	SpilledPairs      int64
	BytesSpilled      int64
	IndexBytesSpilled int64
	RunsMerged        int64
	DiskBytesRead     int64
	// SwapBytes is the raw bytes the streaming path's pressure relief
	// swapped to stash files and read back — bookkeeping traffic, kept
	// out of BytesSpilled so spilled volume stays the deterministic
	// communication cost. BytesReclaimed is the total size of spill
	// files deleted while the round was still running (spool rotation,
	// compaction retiring its inputs): disk handed back before Close.
	SwapBytes      int64
	BytesReclaimed int64
	// MaxLivePairs is the high-water mark of any shuffle partition's
	// live buffer; under a memory budget it never exceeds the budget.
	MaxLivePairs int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// resident in shuffle memory (live runs, staged streaming blocks,
	// in-memory sealed runs). On the streaming path with a SpillDir it
	// stays under P*MemoryBudget + workers*BlockPairs — the runtime's
	// whole-round bounded-memory guarantee, as opposed to
	// MaxLivePairs's per-partition one.
	PeakResidentPairs int64
	// SpillOverlapNs is the time the streaming path spent absorbing,
	// sealing and spilling while map tasks were still running — work a
	// collect-then-merge barrier would serialize after the map phase.
	// FinishDrainNs is the residual post-map drain: the barrier that
	// remains.
	SpillOverlapNs int64
	FinishDrainNs  int64
	// ReducerInputLog2 is the log2-bucketed distribution of reducer
	// input sizes — the paper's q distribution. Bucket i counts the
	// reducers whose input lies in [2^i, 2^(i+1)); trimmed after the
	// last non-empty bucket.
	ReducerInputLog2 []int64
}

// PartitionSkew is max/mean partition pairs (1 = perfectly even).
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

// Result is the outcome of one round.
type Result[K comparable, O any] struct {
	// Outputs are the reduce outputs in global deterministic order:
	// keys ascending (shuffle.SortKeys order), emission order within a
	// key.
	Outputs []O
	// Keys and Loads, when Config.RecordKeys / RecordLoads were set,
	// are the reduce keys in that same global order and their input
	// sizes.
	Keys    []K
	Loads   []int
	Metrics Metrics
}

// ErrReducerOverflow is returned (wrapped) when a key group exceeds
// Config.MaxReducerInput.
var ErrReducerOverflow = errors.New("engine: reducer input exceeds configured maximum")

// errInjected marks a deterministic injected task failure.
var errInjected = errors.New("engine: injected task failure")

// Run executes one round over inputs. On error the returned Result
// still carries the metrics accumulated up to the failure point.
func Run[I any, K comparable, V, O any](r Round[I, K, V, O], inputs []I) (res Result[K, O], retErr error) {
	res.Metrics.MapInputs = int64(len(inputs))
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

	if err := runMapPhase(r, inputs, sh, &res.Metrics); err != nil {
		return res, err
	}

	rlane := cfg.Recorder.Lane(obs.LaneRound, 0)
	rlane.Begin(obs.OpPhaseProfile, 0, 0)
	st, err := sh.Stats()
	rlane.End(obs.OpPhaseProfile, 0, obs.ErrFlag(err))
	if err != nil {
		return res, fmt.Errorf("engine: profiling shuffle of round %q: %w", r.Name, err)
	}
	res.Metrics.PairsShuffled = st.Pairs
	res.Metrics.Reducers = st.Keys
	res.Metrics.MaxReducerInput = st.MaxGroup
	res.Metrics.TotalReducerInput = st.Pairs
	res.Metrics.SpillEvents = st.SpillEvents
	res.Metrics.SpilledPairs = st.SpilledPairs
	res.Metrics.BytesSpilled = st.BytesSpilled
	res.Metrics.IndexBytesSpilled = st.IndexBytesSpilled
	res.Metrics.RunsMerged = st.RunsMerged
	res.Metrics.SwapBytes = st.SwapBytes
	res.Metrics.BytesReclaimed = st.BytesReclaimed
	res.Metrics.MaxLivePairs = st.MaxLivePairs
	res.Metrics.PeakResidentPairs = st.PeakResidentPairs
	res.Metrics.ReducerInputLog2 = st.GroupSizeLog2
	res.Metrics.Partitions = make([]PartitionStat, st.Partitions)
	for p := range res.Metrics.Partitions {
		res.Metrics.Partitions[p] = PartitionStat{
			Pairs:    st.PartitionPairs[p],
			Keys:     st.PartitionKeys[p],
			MaxGroup: st.PartitionMaxGroup[p],
			Worker:   -1,
		}
	}

	if max := cfg.MaxReducerInput; max > 0 && st.MaxGroup > int64(max) {
		// The reduce phase never runs, but callers diagnosing which
		// reducers blew the q limit still get keys and loads.
		if cfg.RecordLoads || cfg.RecordKeys {
			keys, loads, err := collectKeyLoads(sh, int(st.Keys))
			if err != nil {
				return res, err
			}
			res.Loads = loads
			if cfg.RecordKeys {
				res.Keys = keys
			}
		}
		res.Metrics.DiskBytesRead = sh.DiskBytesRead()
		return res, fmt.Errorf("%w: round %q saw reducer with %d inputs, limit %d",
			ErrReducerOverflow, r.Name, st.MaxGroup, max)
	}

	rlane.Begin(obs.OpPhaseReduce, int64(st.Partitions), 0)
	res, retErr = runReducePhase(r, sh, st, res)
	rlane.End(obs.OpPhaseReduce, res.Metrics.Outputs, obs.ErrFlag(retErr))
	res.Metrics.DiskBytesRead = sh.DiskBytesRead()
	return res, retErr
}

// mapTask is one map task's input slice and ordinal.
type mapTask struct{ lo, hi, idx int }

// splitTasks cuts the inputs into map tasks of cfg's chunk size.
func splitTasks(cfg Config, n int) []mapTask {
	workers := cfg.workers()
	chunk := cfg.MapChunk
	if chunk <= 0 {
		chunk = (n + workers*4 - 1) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	var tasks []mapTask
	for lo, idx := 0, 0; lo < n; lo, idx = lo+chunk, idx+1 {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		tasks = append(tasks, mapTask{lo, hi, idx})
	}
	return tasks
}

// runMapPhase executes map tasks in parallel. Each task streams its
// output into the shuffle as it is produced (block-based ingestion:
// full blocks flush to their partition, which absorbs, seals and spills
// concurrently with still-running map tasks).
func runMapPhase[I any, K comparable, V, O any](r Round[I, K, V, O], inputs []I, sh *shuffle.Shuffle[K, V], met *Metrics) (retErr error) {
	cfg := r.Config
	tasks := splitTasks(cfg, len(inputs))
	// The map-phase span covers mapping plus the Finish drain, so
	// partition-lane seal/fence spans inside it that overlap worker
	// map-task spans are exactly SpillOverlapNs.
	rlane := cfg.Recorder.Lane(obs.LaneRound, 0)
	rlane.Begin(obs.OpPhaseMap, int64(len(tasks)), 0)
	defer func() { rlane.End(obs.OpPhaseMap, met.PairsEmitted, obs.ErrFlag(retErr)) }()

	ing := sh.NewIngester()
	emitted := make([]int64, len(tasks))
	retries := make([]int64, len(tasks))
	errs := make([]error, len(tasks))

	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wlane := cfg.Recorder.Lane(obs.LaneWorker, w)
			for ti := range taskCh {
				t := tasks[ti]
				attempts := 0
				for {
					wlane.Begin(obs.OpMapTask, int64(t.idx), int64(attempts))
					count, err, fatal := attemptMapTask(r, inputs[t.lo:t.hi], ing, t.idx, attempts)
					wlane.End(obs.OpMapTask, count, obs.ErrFlag(err))
					if err == nil {
						emitted[ti] = count
						break
					}
					if fatal {
						// A commit error means the shuffle's absorption or
						// spill failed with the attempt's pairs possibly
						// already folded in; retrying would double them.
						errs[ti] = fmt.Errorf("engine: shuffle ingest of round %q: %w", r.Name, err)
						break
					}
					attempts++
					retries[ti]++
					if attempts > cfg.maxRetries() {
						errs[ti] = fmt.Errorf("engine: map task %d of round %q failed after %d attempts: %w",
							t.idx, r.Name, attempts, err)
						break
					}
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
	}
	if err := ing.Finish(); err != nil {
		return fmt.Errorf("engine: shuffle ingest of round %q: %w", r.Name, err)
	}
	met.SpillOverlapNs = ing.OverlapNs()
	met.FinishDrainNs = ing.FinishNs()
	return nil
}

// attemptMapTask runs one attempt of a map task against the streaming
// ingester. Injected failures fire after the task emitted
// (and flushed) its output, so the attempt's staged pairs must be
// fenced off by Abort and re-emitted by the retry. fatal marks commit
// errors, which must fail the round rather than retry the task.
func attemptMapTask[I any, K comparable, V, O any](r Round[I, K, V, O], records []I, ing *shuffle.Ingester[K, V], taskIdx, attempt int) (n int64, err error, fatal bool) {
	tw := ing.Task(taskIdx, attempt)
	count := runMapAttempt(r, records, tw.Emit)
	if fe := r.Config.FailureEveryN; fe > 0 && attempt == 0 && taskIdx%fe == 0 {
		tw.Abort()
		return 0, errInjected, false
	}
	if err := tw.Commit(); err != nil {
		return 0, err, true
	}
	return count, nil, false
}

// runMapAttempt maps the records into emit, returning the pre-combine
// emission count. With a combiner the task groups locally first,
// combines each key's values, and only then emits the (smaller)
// combined output.
func runMapAttempt[I any, K comparable, V, O any](r Round[I, K, V, O], records []I, emit func(K, V)) int64 {
	var count int64
	if r.Combine == nil {
		counted := func(k K, v V) {
			emit(k, v)
			count++
		}
		for _, rec := range records {
			r.Map(rec, counted)
		}
		return count
	}
	local := make(map[K][]V)
	collect := func(k K, v V) {
		local[k] = append(local[k], v)
		count++
	}
	for _, rec := range records {
		r.Map(rec, collect)
	}
	for k, vs := range local {
		for _, v := range r.Combine(k, vs) {
			emit(k, v)
		}
	}
	return count
}

// partResult is one reduced partition, keys in sorted order.
type partResult[K comparable, O any] struct {
	keys  []K
	outs  [][]O
	loads []int
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
// balancer — whole non-empty partitions by default; with
// Config.ReduceSplitPairs, heavy partitions split into class-aligned
// key-range units weighted by indexed pair load — reduces each unit's
// keys in sorted order, and assembles the outputs in global key order.
// Range units of one partition reassemble in range order first, so the
// output is byte-identical to the unsplit round.
func runReducePhase[I any, K comparable, V, O any](r Round[I, K, V, O], sh *shuffle.Shuffle[K, V], st shuffle.Stats, res Result[K, O]) (Result[K, O], error) {
	cfg := r.Config
	workers := cfg.workers()
	P := sh.NumPartitions()

	// Plan key-range splits for partitions heavier than the target.
	// Planning is a counting merge over the resident indexes — no disk
	// read — and never splits an order-equivalence class.
	ranges := make([][]shuffle.KeyRange[K], P)
	if sp := cfg.ReduceSplitPairs; sp > 0 {
		maxRanges := cfg.ReduceRangeConcurrency
		if maxRanges <= 0 {
			// A split target is an explicit opt-in: keep at least two
			// ranges even with a single worker so the split happens.
			maxRanges = workers
			if maxRanges < 2 {
				maxRanges = 2
			}
		}
		for p := 0; p < P; p++ {
			if st.PartitionKeys[p] == 0 || st.PartitionPairs[p] <= int64(sp) {
				continue
			}
			ranges[p] = sh.Partition(p).PlanReduceRanges(int64(sp), maxRanges)
		}
	}

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
			loads = append(loads, int(st.PartitionPairs[p]))
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
		if st.PartitionKeys[p] > 0 {
			ordinal[p] = next
			next++
		} else {
			ordinal[p] = -1
		}
	}

	results := make([]partResult[K, O], P)
	rangeResults := make([][]partResult[K, O], P)
	readers := make([]partReader[K, V], P)
	for p := 0; p < P; p++ {
		if ranges[p] != nil {
			rangeResults[p] = make([]partResult[K, O], len(ranges[p]))
		}
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
				attempts := 0
				for {
					wlane.Begin(obs.OpReduceTask, int64(p), int64(attempts))
					rlane.Begin(obs.OpReduceRange, int64(p), int64(rng))
					pr, err := attemptReduce(r, rr, kr, rng <= 0, ordinal[p], attempts)
					rlane.End(obs.OpReduceRange, int64(len(pr.keys)), obs.ErrFlag(err))
					wlane.End(obs.OpReduceTask, int64(len(pr.keys)), obs.ErrFlag(err))
					if err == nil {
						if rng < 0 {
							results[p] = pr
						} else {
							rangeResults[p][rng] = pr
						}
						break
					}
					attempts++
					retries[u]++
					if attempts > cfg.maxRetries() {
						errs[u] = fmt.Errorf("engine: reduce partition %d (range %d) of round %q failed after %d attempts: %w",
							p, rng, r.Name, attempts, err)
						break
					}
				}
				readers[p].release()
			}
		}(w, perWorker[w])
	}
	wg.Wait()

	for u := range units {
		if errs[u] != nil {
			return res, errs[u]
		}
		res.Metrics.ReduceRetries += retries[u]
	}

	// Reassemble split partitions in range order: the ranges partition
	// the key space in canonical order, so concatenation reproduces the
	// whole-partition merge's key sequence exactly.
	for p := 0; p < P; p++ {
		if ranges[p] == nil {
			continue
		}
		var pr partResult[K, O]
		for _, rpr := range rangeResults[p] {
			pr.keys = append(pr.keys, rpr.keys...)
			pr.outs = append(pr.outs, rpr.outs...)
			pr.loads = append(pr.loads, rpr.loads...)
		}
		results[p] = pr
	}

	// Global assembly: all keys sorted once, outputs concatenated in
	// that order — the runtime's deterministic output contract.
	totalKeys := int(st.Keys)
	allKeys := make([]K, 0, totalKeys)
	type ref struct{ p, i int }
	refs := make(map[K]ref, totalKeys)
	for p := 0; p < P; p++ {
		for i, k := range results[p].keys {
			allKeys = append(allKeys, k)
			refs[k] = ref{p, i}
		}
	}
	shuffle.SortKeys(allKeys)

	var outs []O
	for _, k := range allKeys {
		rf := refs[k]
		outs = append(outs, results[rf.p].outs[rf.i]...)
	}
	res.Outputs = outs
	res.Metrics.Outputs = int64(len(outs))
	if cfg.RecordLoads || cfg.RecordKeys {
		res.Loads = make([]int, len(allKeys))
		for i, k := range allKeys {
			rf := refs[k]
			res.Loads[i] = results[rf.p].loads[rf.i]
		}
	}
	if cfg.RecordKeys {
		res.Keys = allKeys
	}
	return res, nil
}

// collectKeyLoads gathers every key's input size in global sorted key
// order directly from the shuffle, for failure paths that never reach
// the reduce phase. It reuses the counting pass's in-memory index
// merge (ForEachGroupCount), so diagnosing an overflow costs zero
// run-file reads — the round's spilled data is never scanned a second
// time just to report which reducers blew the limit.
func collectKeyLoads[K comparable, V any](sh *shuffle.Shuffle[K, V], totalKeys int) ([]K, []int, error) {
	allKeys := make([]K, 0, totalKeys)
	sizes := make(map[K]int, totalKeys)
	for p := 0; p < sh.NumPartitions(); p++ {
		err := sh.Partition(p).ForEachGroupCount(func(k K, count int) error {
			allKeys = append(allKeys, k)
			sizes[k] = count
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	shuffle.SortKeys(allKeys)
	loads := make([]int, len(allKeys))
	for i, k := range allKeys {
		loads[i] = sizes[k]
	}
	return allKeys, loads, nil
}

// attemptReduce runs one attempt of a reduce unit — the key range kr of
// a partition (the unbounded range: the whole partition) — streaming its
// key groups in sorted order through the partition's RangeReader: the
// shuffle's k-way merge holds only one group's values at a time, so a
// spilled partition reduces within the memory budget. Fault injection
// fires only on a partition's first unit (first == true), so a split
// round injects exactly as many failures as an unsplit one.
func attemptReduce[I any, K comparable, V, O any](r Round[I, K, V, O], rr *shuffle.RangeReader[K, V], kr shuffle.KeyRange[K], first bool, taskOrdinal, attempt int) (partResult[K, O], error) {
	if fe := r.Config.FailureEveryN; fe > 0 && first && attempt == 0 && taskOrdinal%fe == 0 {
		return partResult[K, O]{}, errInjected
	}
	var pr partResult[K, O]
	reduce, batch := r.Reduce, false
	if r.ReduceBatch != nil {
		// The batch contract: one value-section read and one batch
		// decode per group, values only valid during the call.
		reduce, batch = r.ReduceBatch, true
	}
	err := rr.ForEachGroupRange(kr, batch, func(k K, vs []V) error {
		pr.keys = append(pr.keys, k)
		pr.loads = append(pr.loads, len(vs))
		var outs []O
		reduce(k, vs, func(o O) { outs = append(outs, o) })
		pr.outs = append(pr.outs, outs)
		return nil
	})
	if err != nil {
		return partResult[K, O]{}, err
	}
	return pr, nil
}

// SortKeys re-exports the shuffle's canonical key ordering for callers
// assembling their own output.
func SortKeys[K comparable](keys []K) { shuffle.SortKeys(keys) }
