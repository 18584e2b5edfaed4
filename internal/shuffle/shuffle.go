// Package shuffle implements the partitioned grouped shuffle that sits
// between the map and reduce phases of the mr runtime.
//
// The paper's whole subject is the data volume crossing this boundary
// (the communication cost, from which the replication rate r is derived)
// and how it is divided among reducers (the reducer size q). The seed
// runtime modeled the boundary as a single global map merged under one
// goroutine; this package replaces it with a real partitioned exchange:
// keys are hashed into P partitions, each map task's writer pre-buckets
// its output by partition and streams it in blocks through the Ingester
// (ingest.go) — the only way pairs enter a Shuffle besides AdoptRun —
// and each partition absorbs its blocks in task order under its own
// lock. The per-partition pair counts, key counts and largest key group
// that the package reports are therefore properties of an actual
// execution, not post-hoc accounting.
//
// Keys are placed by their compiled key plan's hash (StableHasher), a
// pure function of the key's value and the placement seed (WithSeed),
// rather than by formatting the key with fmt and hashing the string,
// which the seed runtime did.
//
// An optional bounded-memory mode caps the number of pairs a partition
// buffers in its live run: when the cap is reached the run is sealed
// and, when a SpillDir is configured, encoded in sorted-key order to a
// disk run file (internal/runfile). At read time each partition streams
// its key groups through a k-way merge over the on-disk runs, the
// in-memory sealed runs, and the live run, so a partition several times
// larger than its budget is reduced without ever being resident at
// once. Without a SpillDir, sealed runs stay in memory and only the
// spill pressure is reported, as in earlier versions.
package shuffle

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// Options configures a Shuffle.
type Options struct {
	// Partitions is the number of shuffle partitions P; the effective
	// count is PartitionCount(Partitions).
	Partitions int

	// MaxBufferedPairs is the per-partition memory budget, in pairs.
	// When positive, a partition whose live run reaches this many
	// buffered pairs seals the run and starts a new one, so the live
	// buffer never exceeds the budget. Stats reports the spill
	// pressure.
	MaxBufferedPairs int

	// SpillDir, when set together with MaxBufferedPairs, makes sealed
	// runs real: each is encoded in sorted-key order to a temp run
	// file under this directory and dropped from memory. Read APIs
	// stream a k-way merge over disk and live runs. Call Close to
	// delete the files. When empty, sealed runs stay in memory.
	SpillDir string

	// FS overrides the filesystem behind spill run files. Nil selects
	// the real filesystem (runfile.OSFS); fault-injection tests thread
	// an errfs.FS here to fail chosen creates, reads, writes and
	// closes.
	FS runfile.FS

	// Recorder, when non-nil, receives the shuffle's lifecycle events:
	// block flushes, seals, pressure-relief swaps and swap aborts,
	// compactions and reduce-time merges, each on its partition's lane;
	// asynchronous compactions land on per-worker compactor lanes.
	// Nil disables recording at the cost of one nil-check per event —
	// the hot data path is identical either way.
	Recorder *obs.Recorder
}

// DefaultPartitions is the partition count used when Options.Partitions
// is unset: enough to keep every core busy during the merge and to give
// the LPT partition scheduler room to balance, rounded to a power of
// two and clamped to [8, 256].
func DefaultPartitions() int {
	p := runtime.GOMAXPROCS(0) * 4
	if p < 8 {
		p = 8
	}
	if p > 256 {
		p = 256
	}
	return ceilPow2(p)
}

// PartitionCount is the effective partition count for a requested n:
// DefaultPartitions() when n <= 0, else n rounded up to a power of two
// so partition selection is a mask, not a modulo.
func PartitionCount(n int) int {
	if n <= 0 {
		return DefaultPartitions()
	}
	return ceilPow2(n)
}

// tuning holds the shuffle's internal knobs. Production code never sets
// them (New resolves the zero tuning): the block budget derives from the
// memory budget, the compaction pool and the spool rotation threshold
// are fixed. The package's tests pin them (newTuned) to make I/O orders
// and run shapes exact.
type tuning struct {
	// blockPairs is the ingestion block budget: the pairs a TaskWriter
	// buffers across its per-partition blocks before flushing the
	// fullest. The whole-round resident bound is P*MaxBufferedPairs +
	// writers*blockPairs.
	blockPairs int
	// compactors is the background compaction pool size; negative
	// compacts inline on the sealing goroutine, which makes a
	// single-goroutine round's I/O order deterministic (the
	// fault-injection tests march over it).
	compactors int
	// rotateBytes bounds the dead bytes (sections compacted away,
	// absorbed or aborted) a spool file may accumulate before a fresh
	// file takes over and the old one is deleted once its last live
	// section is released; negative disables rotation.
	rotateBytes int64
}

// resolve fills in every knob a test left zero. The block budget is
// half the memory budget (1024 without one), so two flushed blocks fit
// a partition's live run, clamped to [16, 8192] so blocks amortize
// locking yet keep the per-writer buffer a fraction of the budget.
// Compaction is I/O-heavy and already bounded by diskSem, so two
// workers keep run counts down without competing with ingestion for
// CPU. Spools rotate at 4 MiB of dead bytes.
func (t tuning) resolve(budget int) tuning {
	if t.blockPairs <= 0 {
		t.blockPairs = 1024
		if budget > 0 {
			t.blockPairs = budget / 2
		}
	}
	t.blockPairs = min(max(t.blockPairs, 16), 8192)
	if t.compactors == 0 {
		t.compactors = 2
	}
	if t.rotateBytes == 0 {
		t.rotateBytes = 4 << 20
	}
	return t
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Pair is one key-value pair buffered by a map task.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Shuffle is a P-way partitioned grouped exchange from map tasks to
// reduce partitions.
type Shuffle[K comparable, V any] struct {
	hasher      StableHasher[K]
	floatKey    bool             // K has a float or complex part: Emit refuses NaN keys
	partitioner func(K) int      // optional override; used by tests and schemas
	combiner    func(K, []V) []V // optional associative pre-aggregation, applied at seal time
	sealSink    SealSink         // optional seal redirect (SetSealSink)
	opts        Options
	nparts      int
	mask        uint64
	tune        tuning // resolved
	parts       []partitionState[K, V]
	mu          sync.Mutex // guards closed and borrowed
	closed      bool
	fs          runfile.FS          // filesystem behind run files (OSFS unless injected)
	diskSem     chan struct{}       // bounds concurrent multi-file disk reads (fd cap)
	diskRead    atomic.Int64        // bytes read back from spill run files
	borrowed    map[string]*runFile // adopted files by path (AdoptRun)

	// Async compaction (see compact.go): partitions over their run-count
	// bound are enqueued on compactCh (at most one entry per partition)
	// and merged by tune.compactors background workers. compactWG
	// tracks queued + in-flight work; Finish and Close wait on it, and
	// the first worker error is surfaced through Finish.
	compactCh    chan int
	compactStart sync.Once
	compactWG    sync.WaitGroup
	compactMu    sync.Mutex // guards compactErr
	compactErr   error

	swapBytes      atomic.Int64 // raw bytes written by pressure swaps (ingest.go)
	bytesReclaimed atomic.Int64 // spill-file bytes deleted mid-round (rotation, compaction)

	// swapImage is Pair[K, V]'s runfile.ImageSize: when nonzero a swap
	// section is the staged pairs' memory image; otherwise it frames
	// each pair through kc and vc, K's and V's codecs resolved once
	// (the merge cursors decode spilled values through vc too).
	swapImage int
	kc        runfile.Codec[K]
	vc        runfile.Codec[V]

	// pool recycles flushed block backing arrays between the map-side
	// writers and the absorption path, so steady-state streaming
	// ingestion allocates no per-block memory.
	pool sync.Pool

	// resident counts the pairs currently held in shuffle memory (live
	// runs, staged blocks, in-memory sealed runs); peakResident is its
	// whole-round high-water mark, the bound the streaming data path
	// promises to keep under P*MemoryBudget + writers*blockPairs.
	resident     atomic.Int64
	peakResident atomic.Int64
}

// partitionState is one partition's runs and counters, shared during
// ingestion between flushing map workers and draining committers under
// mu.
type partitionState[K comparable, V any] struct {
	mu            sync.Mutex      // guards all fields during streaming ingestion
	idx           int             // this partition's index (compaction enqueue key)
	runs          []*memRun[K, V] // sealed in-memory runs, in seal order
	disk          []diskRun[K]    // sealed on-disk runs, in seal order
	spilledToDisk bool            // ever had a disk run (sticky across Close)

	// The live run, livePairs pairs in absorption order, is sorted
	// chunks, then live: an append-only arena that nothing groups by key
	// until a seal, a read or its reaching liveChunk sorts it, once.
	chunks       []*memRun[K, V]
	live         []Pair[K, V]
	livePairs    int
	maxLivePairs int // high-water mark of livePairs
	pairs        int64
	spillEvents  int64
	spilledPairs int64
	bytesSpilled int64

	// staged holds flushed-but-uncommitted blocks per map task during
	// streaming ingestion (see ingest.go); stagedPairs is the in-memory
	// pair count across all staged runs of this partition. Both are
	// guarded by stageMu — a tiny lock separate from mu so a flushing
	// map worker appends in O(1) without waiting behind an absorb or a
	// disk spill running under mu.
	stageMu     sync.Mutex
	staged      map[int]*stagedRun[K, V]
	stagedPairs int

	// A seal's reused scratch: the sorted live run, the combiner's output
	// over it, and their encoder.
	sorted, combined memRun[K, V]
	enc              GroupEncoder[K, V]

	// swapBuf and intern serve absorbSwapped's codec-framed sections:
	// swapBuf holds one whole section, and intern dedups string keys
	// decoded from them — a partition re-reads each of its hot keys once
	// per swapped pair, so without the table the readback allocates one
	// string per pair instead of one per distinct key. Every seal clears
	// intern, so it holds at most the live run's keys plus one block's.
	swapBuf []byte
	intern  map[string]K

	// pspool is the partition's seal spool: one shared temp file (per
	// rotation epoch) receiving every run sealed to disk for this
	// partition, opened by the first such seal; stash is the swap spool,
	// receiving the raw pressure-swapped sections of staged tasks (see
	// ingest.go). Both are closed by Ingester.Finish (Close is the
	// safety net) and guarded by mu.
	pspool *spool[K, V]
	stash  *spool[K, V]

	// compacting marks that this partition is queued for (or undergoing)
	// asynchronous compaction; at most one queue entry per partition
	// exists, which is what lets enqueue sends never block. Guarded by
	// mu.
	compacting bool

	// liveApprox mirrors livePairs for lock-free reads: the streaming
	// flush path consults it (plus stagedPairs) to decide whether it
	// must stop and relieve pressure, without taking the work lock that
	// an in-flight absorb or spill holds. Updated at block granularity;
	// staleness is bounded by one block, which the resident bound's
	// per-writer term already allows for.
	liveApprox atomic.Int64

	// lane is the partition's observability ring (nil when the shuffle
	// has no Recorder — every emit is then a nil-check no-op). Span
	// events on it are emitted under mu, so they nest.
	lane *obs.Ring
}

// syncLive refreshes the lock-free livePairs mirror; call after any
// block-granularity livePairs change.
func (st *partitionState[K, V]) syncLive() { st.liveApprox.Store(int64(st.livePairs)) }

// New creates a shuffle with the given options. It panics on types that
// fail CheckTypes, a programming error the executors rule out first.
func New[K comparable, V any](opts Options) *Shuffle[K, V] { return newTuned[K, V](opts, tuning{}) }

func newTuned[K comparable, V any](opts Options, tune tuning) *Shuffle[K, V] {
	if err := CheckTypes[K, V](opts.SpillDir != ""); err != nil {
		panic(err)
	}
	n := PartitionCount(opts.Partitions)
	s := &Shuffle[K, V]{
		hasher:   NewStableHasher[K](placementSeed.Load()),
		floatKey: runfile.PlanFor[K]().HasFloat(),
		opts:     opts,
		tune:     tune.resolve(opts.MaxBufferedPairs),
		nparts:   n,
		mask:     uint64(n - 1),
		parts:    make([]partitionState[K, V], n),
		diskSem:  make(chan struct{}, diskReadConcurrency),
	}
	for i := range s.parts {
		s.parts[i].idx = i
		// A nil Recorder hands out nil lanes; every emit is then a no-op.
		s.parts[i].lane = opts.Recorder.Lane(obs.LanePartition, i)
	}
	s.fs = opts.FS
	if s.fs == nil {
		s.fs = runfile.OSFS
	}
	if opts.SpillDir != "" {
		s.swapImage = runfile.ImageSize[Pair[K, V]]()
	}
	s.kc, s.vc = runfile.CodecFor[K](), runfile.CodecFor[V]()
	return s
}

// getBlock takes a block backing array from the pool (or allocates one
// at the block budget) with length zero.
func (s *Shuffle[K, V]) getBlock() []Pair[K, V] {
	if v := s.pool.Get(); v != nil {
		return (*v.(*[]Pair[K, V]))[:0]
	}
	return make([]Pair[K, V], 0, s.tune.blockPairs)
}

// putBlock recycles a flushed block's backing array.
func (s *Shuffle[K, V]) putBlock(b []Pair[K, V]) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	s.pool.Put(&b)
}

// addResident adjusts the shuffle's in-memory pair count, updating the
// whole-round peak on growth.
func (s *Shuffle[K, V]) addResident(n int) {
	if n == 0 {
		return
	}
	cur := s.resident.Add(int64(n))
	if n < 0 {
		return
	}
	for {
		peak := s.peakResident.Load()
		if cur <= peak || s.peakResident.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// PeakResidentPairs is the whole-round high-water mark of pairs held in
// shuffle memory at once (live runs, staged blocks, in-memory sealed
// runs).
func (s *Shuffle[K, V]) PeakResidentPairs() int64 { return s.peakResident.Load() }

// SetPartitioner overrides hash placement with an explicit key-to-
// partition function (reduced modulo the partition count). It must be
// called before ingestion starts.
func (s *Shuffle[K, V]) SetPartitioner(fn func(K) int) {
	s.partitioner = fn
}

// SetCombiner pushes an associative pre-aggregation down into the
// shuffle's sealing path: whenever a partition's live run reaches the
// memory budget, each key's buffered values are combined before the
// run is sealed, and sealed again across runs when disk runs are
// compacted. Spilled bytes then track the post-combine communication
// cost rather than the raw emission stream, and a seal whose combine
// frees enough of the budget is skipped entirely. The function must be
// semantically transparent the way a map-side combiner is —
// reduce(k, combine(vs)) == reduce(k, vs) for any split of vs — since
// sealing applies it to arbitrary prefixes of a key's values and may
// re-apply it to already-combined partials. It must be called before
// ingestion starts.
func (s *Shuffle[K, V]) SetCombiner(fn func(key K, values []V) []V) {
	s.combiner = fn
}

// SealSink receives a sealed run in place of the shuffle's own spill
// path: it supplies the destination — a runfile.Writer positioned
// wherever the run should land — and calls fill, once and before it
// returns, which encodes the run onto it (post-combine, keys in
// canonical SortKeys order, values in absorption order: the bytes the
// shuffle's own spool would have received). The sink finishes the
// writer and owns what the bytes become. An error from fill that is not
// the writer's own (runfile.Writer.Err) is an encoding failure.
type SealSink func(part int, fill func(w *runfile.Writer) error) error

// SetSealSink redirects every sealed run (budget reached, or
// SealAllLive) to fn. The shuffle keeps nothing: resident pairs drop by
// the run's size, no disk run is recorded, and compaction never fires,
// so the sink is the exchange medium. This is how an external executor
// (internal/proc's map workers) reuses the streaming ingestion path —
// budget-driven sealing, combiner push-down, swap relief, and the one
// run encoder — while keeping its own section/commit protocol. fn runs
// under the partition lock; it may be called from concurrent goroutines
// for different partitions (the Finish drain), never concurrently for
// one partition. Must be set before ingestion starts. A sink requires a
// SpillDir when pressure swaps should relieve staged memory; the sealed
// runs themselves never touch the SpillDir.
func (s *Shuffle[K, V]) SetSealSink(fn SealSink) {
	s.sealSink = fn
}

// SealAllLive force-seals every partition's remaining live run, in
// partition order — the final flush of a sink-directed round, turning
// the under-budget residue into the sink's last runs. (The regular
// Finish deliberately leaves under-budget live runs buffered for
// in-process reads; a seal sink has no read side, so everything must
// go to the sink.) Call after Ingester.Finish.
func (s *Shuffle[K, V]) SealAllLive() error {
	for p := range s.parts {
		st := &s.parts[p]
		st.mu.Lock()
		err := st.seal(s, true)
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// NumPartitions returns the effective partition count P.
func (s *Shuffle[K, V]) NumPartitions() int { return s.nparts }

// PartitionOf returns the partition a key routes to.
func (s *Shuffle[K, V]) PartitionOf(k K) int {
	if s.partitioner != nil {
		p := s.partitioner(k) % s.nparts
		if p < 0 {
			p += s.nparts
		}
		return p
	}
	return int(s.hasher.Hash(k) & s.mask)
}

// absorb appends one block of pairs (a single task's output for this
// partition, in emission order) to the live run.
func (st *partitionState[K, V]) absorb(s *Shuffle[K, V], pairs []Pair[K, V]) error {
	return st.take(s, len(pairs), len(pairs), func(tail []Pair[K, V]) error {
		pairs = pairs[copy(tail, pairs):]
		return nil
	})
}

// take grows the live run by n pairs, which fill writes into the
// arena's tail, at most most at a time. No piece crosses the memory
// budget or liveChunk: the run seals on reaching the budget — exactly
// there, so where seals fall is a function of the committed pair
// stream alone — and an arena that reaches liveChunk becomes a chunk.
func (st *partitionState[K, V]) take(s *Shuffle[K, V], n, most int, fill func(tail []Pair[K, V]) error) error {
	budget := s.opts.MaxBufferedPairs
	for n > 0 {
		m := min(n, most, liveChunk-len(st.live))
		if budget > 0 {
			m = min(m, budget-st.livePairs)
		}
		l := len(st.live)
		if l+m > cap(st.live) { // double from one block, up to liveChunk
			grown := make([]Pair[K, V], l, max(l+m, min(max(2*cap(st.live), s.tune.blockPairs), liveChunk)))
			copy(grown, st.live)
			st.live = grown
		}
		st.live = st.live[:l+m]
		if err := fill(st.live[l:]); err != nil {
			st.live = st.live[:l]
			return err
		}
		n -= m
		st.livePairs += m
		st.maxLivePairs = max(st.maxLivePairs, st.livePairs)
		st.pairs += int64(m)
		st.syncLive()
		if budget > 0 && st.livePairs >= budget {
			if err := st.seal(s, false); err != nil {
				return err
			}
		}
		if len(st.live) >= liveChunk { // also a cancelled seal's refill
			st.chunk()
		}
	}
	return nil
}

// liveChunk is the most pairs the live arena holds unsorted. A live run
// with no budget, or a budget above this, is kept as sorted chunks, so
// it grows by values and group ends rather than whole pairs, and its
// arena is never copied to grow.
const liveChunk = 1 << 14

// chunk sorts the arena, when it holds pairs, into the live run's next
// chunk and empties it.
func (st *partitionState[K, V]) chunk() {
	if len(st.live) > 0 {
		c := new(memRun[K, V])
		c.sortFrom(st.live)
		st.chunks = append(st.chunks, c)
		clear(st.live)
		st.live = st.live[:0]
	}
}

// refill makes run's pairs, in run order, the whole live run, as its
// arena (nil empties it), zeroing what the arena no longer holds so its
// capacity pins no value.
func (st *partitionState[K, V]) refill(run *memRun[K, V]) {
	old := len(st.live)
	st.live = st.live[:0]
	for g := 0; run != nil && g < len(run.keys); g++ {
		for _, v := range run.group(g) {
			st.live = append(st.live, Pair[K, V]{run.keys[g], v})
		}
	}
	if l := len(st.live); l < old {
		clear(st.live[l:old])
	}
	st.chunks = nil
	st.syncLive()
}

// seal closes the live run — to a disk run when a SpillDir is set,
// otherwise to the in-memory run list — and records spill pressure.
// The arena is sorted once, stably, into its run form (memRun.sortFrom)
// and merged with the run's chunks, if any. With a combiner, one
// run-length pass then combines each key's values; a combine that
// frees at least half the budget cancels the seal, and the combined
// groups stay in the arena ahead of whatever is absorbed next, so
// combiner-friendly workloads spill far less than their raw emission
// volume. force overrides that cancellation: SealAllLive must empty
// the live run however well the combine went.
//
// A disk seal appends the run to the partition's seal spool, opening it
// if this is the partition's first; a whole round's seals then cost one
// file per partition instead of one per seal, which on
// syscall-expensive filesystems is most of the spill path's wall
// clock.
func (st *partitionState[K, V]) seal(s *Shuffle[K, V], force bool) (err error) {
	if st.livePairs == 0 {
		return nil
	}
	run := &st.sorted
	if len(st.chunks) > 0 {
		st.chunk()
		run = mergeRuns(st.chunks)
	} else {
		run.sortFrom(st.live)
	}
	if s.combiner != nil {
		run = run.combine(s.combiner, &st.combined)
		post := len(run.vals) // pair totals stay the sum of group counts
		st.pairs -= int64(st.livePairs - post)
		s.addResident(post - st.livePairs)
		st.livePairs = post
		if post == 0 || !force && post <= s.opts.MaxBufferedPairs/2 {
			st.refill(run)
			return nil
		}
	}
	sealing := int64(st.livePairs)
	st.lane.Begin(obs.OpSeal, sealing, 0)
	defer func() { st.lane.End(obs.OpSeal, sealing, obs.ErrFlag(err)) }()
	switch {
	case s.sealSink != nil:
		// Sink-directed seal: the run leaves the shuffle entirely. No
		// disk run, no compaction — the sink's storage is the read side.
		sunk := run // the sink keeps fill: let only this copy escape
		if err := s.sealSink(st.idx, func(w *runfile.Writer) error { return st.enc.run(w, sunk) }); err != nil {
			return err
		}
	case s.opts.SpillDir != "":
		if st.pspool == nil {
			st.pspool = &spool[K, V]{s: s, pattern: "mr-spool-*.run", kind: "seal spool"}
		}
		dr, err := st.pspool.addRun(run.keys, sealing, func(w *runfile.Writer) error { return st.enc.run(w, run) })
		if err != nil {
			return err
		}
		st.disk = append(st.disk, dr)
		st.spilledToDisk = true
		st.bytesSpilled += dr.size
	default:
		st.runs = append(st.runs, run.clone())
	}
	if s.sealSink != nil || s.opts.SpillDir != "" {
		s.addResident(-st.livePairs) // the pairs are encoded: on disk, or the sink's
	}
	st.spillEvents++
	st.spilledPairs += sealing
	st.livePairs = 0
	st.refill(nil)
	// Interned swapped keys serve the live run being refilled; keeping
	// them past its seal would grow the table with every distinct key
	// the round swaps, outside the resident bound.
	clear(st.intern)
	if st.pspool != nil && needsCompaction(st.disk) {
		if s.tune.compactors < 0 {
			// Inline mode: compact on the sealing goroutine
			// (deterministic scheduling for tests).
			s.diskSem <- struct{}{}
			err := st.compactDiskRuns(s, st.lane, false)
			<-s.diskSem
			return err
		}
		s.maybeCompact(st)
	}
	return nil
}

// memRun is a sorted run in memory — a sealed run kept without a
// SpillDir, a chunk of the live run, a seal's scratch — in one flat
// form: keys in canonical order, and keys[g]'s values, in absorption
// order, at vals[ends[g-1]:ends[g]] (from 0 for g = 0).
type memRun[K comparable, V any] struct {
	keys []K
	ends []int
	vals []V
}

// group returns keys[g]'s values, capped so an append cannot reach the
// next group's.
func (r *memRun[K, V]) group(g int) []V {
	lo := 0
	if g > 0 {
		lo = r.ends[g-1]
	}
	return r.vals[lo:r.ends[g]:r.ends[g]]
}

// sortFrom replaces r's contents with pairs sorted stably by key — a
// key's values keep their arena order. The sort moves a permutation,
// never the pairs (sortOrder); one pass then gathers keys and values
// through it.
func (r *memRun[K, V]) sortFrom(pairs []Pair[K, V]) {
	order, pooled := sortOrder(pairs)
	defer orderScratch.Put(pooled)
	r.keys, r.ends, r.vals = r.keys[:0], r.ends[:0], slices.Grow(r.vals[:0], len(pairs))
	for _, o := range order {
		p := &pairs[o.v]
		if g := len(r.keys); g == 0 || r.keys[g-1] != p.Key {
			if g > 0 {
				r.ends = append(r.ends, len(r.vals))
			}
			r.keys = append(r.keys, p.Key)
		}
		r.vals = append(r.vals, p.Value)
	}
	if len(r.keys) > 0 {
		r.ends = append(r.ends, len(r.vals))
	}
}

// combine runs fn over r's groups into out, one run-length pass, and
// returns out. Keys whose combined values come back empty are dropped.
func (r *memRun[K, V]) combine(fn func(K, []V) []V, out *memRun[K, V]) *memRun[K, V] {
	out.keys, out.ends, out.vals = out.keys[:0], out.ends[:0], out.vals[:0]
	for g, k := range r.keys {
		if cv := fn(k, r.group(g)); len(cv) > 0 {
			out.keys = append(out.keys, k)
			out.vals = append(out.vals, cv...)
			out.ends = append(out.ends, len(out.vals))
		}
	}
	return out
}

// clone returns a copy of r that shares no storage with it.
func (r *memRun[K, V]) clone() *memRun[K, V] {
	return &memRun[K, V]{slices.Clone(r.keys), slices.Clone(r.ends), slices.Clone(r.vals)}
}

// Partition is a read view of one shuffle partition.
type Partition[K comparable, V any] struct {
	s   *Shuffle[K, V]
	idx int
}

// Partition returns the view of partition p.
func (s *Shuffle[K, V]) Partition(p int) Partition[K, V] {
	return Partition[K, V]{s: s, idx: p}
}

// ForEachGroupBatch streams the partition's key groups in canonical
// sorted key order through fn, k-way merging the partition's on-disk
// runs, in-memory sealed runs and live run without materializing the
// partition. A key's values arrive concatenated across runs in seal
// order then the live run — the package's value-order contract — in one
// scratch slice every group reuses, so a partition streams with
// near-zero per-group allocation: fn may change the slice but must not
// keep it. An error from fn stops the iteration and is returned; I/O
// and decode errors reading spilled runs are returned likewise.
func (p Partition[K, V]) ForEachGroupBatch(fn func(k K, vs []V) error) error {
	rr, err := p.OpenRangeReader()
	if err != nil {
		return err
	}
	defer rr.Close()
	return rr.ForEachGroupRange(KeyRange[K]{}, true, fn)
}

// PartitionStat is the realized profile of one shuffle partition.
type PartitionStat struct {
	// Pairs and Keys are the partition's share of the exchange.
	Pairs int64
	Keys  int64
	// MaxGroup is the partition's largest key group (its local q).
	MaxGroup int64
	// Worker is the reduce worker the executor placed the partition on;
	// -1 until it places it (and when the round failed before).
	Worker int
}

// Stats is the realized communication profile of an exchange, in the
// paper's terms: the one record of it, which engine.Metrics embeds and
// both executors fill. All counts are key-value pairs.
type Stats struct {
	// PairsShuffled is the number of pairs sent to the reduce phase,
	// after combining (a combiner's seals shrink it).
	PairsShuffled int64
	// Reducers is the number of distinct reduce keys ("reducers" in the
	// paper's sense: a key plus its list of values).
	Reducers int64
	// MaxReducerInput is the largest number of values any one reduce key
	// received — the realized reducer size q.
	MaxReducerInput int64
	// ReducerInputLog2 is the log2-bucketed distribution of reducer
	// input sizes — the paper's q distribution as realized. Bucket i
	// counts the reducers whose input size lies in [2^i, 2^(i+1)); the
	// slice is trimmed after the last non-empty bucket (nil when the
	// exchange is empty).
	ReducerInputLog2 []int64
	// Partitions is the per-partition profile of the exchange (length
	// P).
	Partitions []PartitionStat
	// SpillEvents and SpilledPairs report bounded-memory pressure: how
	// many runs were sealed and how many pairs they held.
	SpillEvents  int64
	SpilledPairs int64
	// BytesSpilled is the total encoded size of the runs written to
	// disk — header and key groups; the shuffle's runs end at their last
	// group, their indexes resident — so it tracks the communication
	// volume the paper reasons about (zero without a SpillDir). With a
	// combiner pushed down (SetCombiner) it tracks the post-combine
	// communication cost rather than the raw emission volume.
	BytesSpilled int64
	// DiskBytesRead is the cumulative number of bytes read back from
	// spill run files, across reduce-time merges and compaction.
	// Computing Stats itself adds nothing to it: the counting pass
	// merges resident indexes in memory.
	DiskBytesRead int64
	// SwapBytes is the raw bytes the streaming path's pressure relief
	// wrote to swap stash files — staged pairs shed to disk and read
	// back verbatim at their task's turn. Swap traffic is bookkeeping,
	// not shuffle output, so it is reported separately from
	// BytesSpilled (which stays a pure function of the committed pair
	// stream — the property the bench's cross-lane determinism check
	// pins).
	SwapBytes int64
	// BytesReclaimed is the total size of spill files deleted while the
	// round was still running — spool rotation retiring dead sections
	// and compaction releasing its inputs — i.e. disk given back before
	// Close.
	BytesReclaimed int64
	// RunsMerged is the number of runs (disk, sealed in-memory, live)
	// that the reduce-time k-way merges combine, summed over the
	// partitions that sealed at least once.
	RunsMerged int64
	// MaxLivePairs is the high-water mark of any partition's live
	// buffer. Under a memory budget it never exceeds MaxBufferedPairs:
	// the proof that execution stayed within budget.
	MaxLivePairs int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// held in shuffle memory at once: live runs, staged streaming
	// blocks, and in-memory sealed runs, summed over partitions. With a
	// SpillDir the streaming ingestion path keeps it under
	// P*MaxBufferedPairs + writers*blockPairs, the block half the budget
	// (clamped to [16, 8192]) — the bound that makes the communication
	// cost, not the dataset size, the limit on resident memory.
	PeakResidentPairs int64
}

// Stats computes the shuffle's realized profile: Totals plus the
// per-key part, counted by one counting merge per partition, in
// parallel. The walk is pure memory even for spilled partitions — each
// disk run's (key, count) index is resident, so no run file is read.
// The error is non-nil only when the shuffle's spilled state is
// unreadable (for example after Close).
func (s *Shuffle[K, V]) Stats() (Stats, error) {
	st := s.Totals()
	profiles := make([]GroupProfile, s.nparts)
	errs := make([]error, s.nparts)
	var wg sync.WaitGroup
	for p := 0; p < s.nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = s.Partition(p).ForEachGroupCount(func(_ K, count int) error {
				profiles[p].Add(count)
				return nil
			})
		}(p)
	}
	wg.Wait()
	for p := range profiles {
		if errs[p] != nil {
			return st, errs[p]
		}
		st.AddGroups(p, &profiles[p])
	}
	return st, nil
}

// DiskBytesRead is the cumulative number of bytes read back from spill
// run files so far (see Stats.DiskBytesRead).
func (s *Shuffle[K, V]) DiskBytesRead() int64 { return s.diskRead.Load() }

// Totals is the shuffle's profile without its per-key part: Reducers,
// MaxReducerInput, ReducerInputLog2 and each partition's Keys and
// MaxGroup stay zero, so it costs no merge. A caller whose own merge
// yields every group counts them (GroupProfile) and folds them in
// (AddGroups).
func (s *Shuffle[K, V]) Totals() Stats {
	st := Stats{Partitions: make([]PartitionStat, s.nparts)}
	for p := range s.parts {
		ps := &s.parts[p]
		st.Partitions[p] = PartitionStat{Pairs: ps.pairs, Worker: -1}
		st.PairsShuffled += ps.pairs
		st.SpillEvents += ps.spillEvents
		st.SpilledPairs += ps.spilledPairs
		st.BytesSpilled += ps.bytesSpilled
		st.MaxLivePairs = max(st.MaxLivePairs, ps.maxLivePairs)
		if nruns := len(ps.runs) + len(ps.disk) + min(ps.livePairs, 1); nruns > 1 {
			st.RunsMerged += int64(nruns)
		}
	}
	st.DiskBytesRead = s.diskRead.Load()
	st.SwapBytes = s.swapBytes.Load()
	st.BytesReclaimed = s.bytesReclaimed.Load()
	st.PeakResidentPairs = s.peakResident.Load()
	return st
}

// GroupProfile tallies key groups as a merge yields them: how many,
// the largest (the local q) and the log2 size histogram, bucket i
// counting the groups of [2^i, 2^(i+1)) values.
type GroupProfile struct {
	Keys     int64
	MaxGroup int64
	Log2     [64]int64
}

// Add counts one group of n values.
func (g *GroupProfile) Add(n int) {
	g.Keys++
	g.MaxGroup = max(g.MaxGroup, int64(n))
	g.Log2[log2Bucket(n)]++
}

// AddGroups folds partition p's group profile into st's per-key fields
// (Reducers, MaxReducerInput, ReducerInputLog2, which stays trimmed
// after its last non-empty bucket, and the partition's Keys and
// MaxGroup). A partition's groups may arrive as several profiles, one
// per key range.
func (st *Stats) AddGroups(p int, g *GroupProfile) {
	part := &st.Partitions[p]
	part.Keys += g.Keys
	part.MaxGroup = max(part.MaxGroup, g.MaxGroup)
	st.Reducers += g.Keys
	st.MaxReducerInput = max(st.MaxReducerInput, g.MaxGroup)
	for i, n := range g.Log2 {
		if n == 0 {
			continue
		}
		if len(st.ReducerInputLog2) <= i {
			st.ReducerInputLog2 = append(st.ReducerInputLog2, make([]int64, i+1-len(st.ReducerInputLog2))...)
		}
		st.ReducerInputLog2[i] += n
	}
}

// log2Bucket maps a group size to its ReducerInputLog2 bucket:
// floor(log2(n)), with sizes < 1 folded into bucket 0.
func log2Bucket(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len64(uint64(n)) - 1
}
