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
// Keys are hashed with hash/maphash's typed fast path
// (maphash.Comparable compiles down to the runtime's native memhash for
// fixed-size keys and strhash for strings) rather than by formatting
// the key with fmt and hashing the string, which the seed did.
//
// An optional bounded-memory mode caps the number of pairs a partition
// buffers in its live run: when the cap is reached the run is sealed
// and, when a SpillDir is configured, encoded in sorted-key order to a
// disk run file (internal/runfile). At read time each partition streams
// its key groups through a k-way heap merge over the on-disk runs, the
// in-memory sealed runs, and the live run, so a partition several times
// larger than its budget is reduced without ever being resident at
// once. Without a SpillDir, sealed runs stay in memory and only the
// spill pressure is reported, as in earlier versions.
package shuffle

import (
	"fmt"
	"math/bits"
	"runtime"
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
	hasher       Hasher[K]
	floatKey     bool             // K has a float or complex part: Emit refuses NaN keys
	partitioner  func(K) int      // optional override; used by tests and schemas
	combiner     func(K, []V) []V // optional associative pre-aggregation, applied at seal time
	sealSink     SealSink         // optional seal redirect (SetSealSink)
	opts         Options
	nparts       int
	mask         uint64
	tune         tuning // resolved
	parts        []partitionState[K, V]
	mu           sync.Mutex // guards closed and borrowed
	closed       bool
	spillTypeErr error               // non-nil when K or V cannot survive a disk round trip
	fs           runfile.FS          // filesystem behind run files (OSFS unless injected)
	diskSem      chan struct{}       // bounds concurrent multi-file disk reads (fd cap)
	diskRead     atomic.Int64        // bytes read back from spill run files
	borrowed     map[string]*runFile // adopted files by path (AdoptRun)

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
	// each pair through kc and vc, K's and V's codecs resolved once.
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

	statsMu   sync.Mutex
	statsMemo *Stats // memoized Stats (see invalidateStats)
}

// partitionState is one partition's runs and counters, shared during
// ingestion between flushing map workers and draining committers under
// mu.
type partitionState[K comparable, V any] struct {
	mu            sync.Mutex   // guards all fields during streaming ingestion
	idx           int          // this partition's index (compaction enqueue key)
	runs          []map[K][]V  // sealed in-memory runs, in seal order
	disk          []diskRun[K] // sealed on-disk runs, in seal order
	spilledToDisk bool         // ever had a disk run (sticky across Close)
	live          map[K][]V
	livePairs     int
	maxLivePairs  int // high-water mark of livePairs
	pairs         int64
	spillEvents   int64
	spilledPairs  int64
	bytesSpilled  int64
	indexBytes    int64 // footer-index bytes written alongside run data

	// staged holds flushed-but-uncommitted blocks per map task during
	// streaming ingestion (see ingest.go); stagedPairs is the in-memory
	// pair count across all staged runs of this partition. Both are
	// guarded by stageMu — a tiny lock separate from mu so a flushing
	// map worker appends in O(1) without waiting behind an absorb or a
	// disk spill running under mu.
	stageMu     sync.Mutex
	staged      map[int]*stagedRun[K, V]
	stagedPairs int

	// scratch is the reused per-block key-count map that lets the
	// absorb fast path pre-size live value slices instead of growing
	// them by repeated appends. presizeOff latches when a block turns
	// out to be mostly distinct keys — counting such blocks costs two
	// map operations per pair and pre-sizes nothing, so the partition
	// falls back to plain appends for the rest of the round.
	scratch    map[K]int
	presizeOff bool

	// freeVs recycles live-run value-slice backing arrays across
	// disk-bound seals: once a run's groups are encoded into the spool
	// the slices are dead, so the next fill reuses their capacity
	// instead of re-growing every key's slice from nil. Slices are
	// zeroed before harvesting so recycled capacity never pins decoded
	// values. The in-memory-run path hands the map itself away and must
	// not recycle.
	freeVs []([]V)
	// swapChunk is absorbSwapped's reused read-back block: a memory-image
	// section is read straight into it one block at a time, a framed
	// one decoded into it (absorb copies the pairs out, so reuse is
	// safe). swapBuf and intern serve the framed sections only: swapBuf
	// holds one whole section, and intern dedups string keys decoded
	// from them — a partition re-reads each of its hot keys once per
	// swapped pair, so without the table the readback allocates one
	// string per pair instead of one per distinct key. Every seal of
	// the live run clears intern, so it holds at most the live run's
	// keys plus one read-back block's.
	swapBuf   []byte
	swapChunk []Pair[K, V]
	intern    map[string]K

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

// New creates a shuffle with the given options. It panics on a K that
// fails CheckKey, a programming error the executors rule out first.
func New[K comparable, V any](opts Options) *Shuffle[K, V] { return newTuned[K, V](opts, tuning{}) }

func newTuned[K comparable, V any](opts Options, tune tuning) *Shuffle[K, V] {
	if err := CheckKey[K](); err != nil {
		panic(err)
	}
	n := PartitionCount(opts.Partitions)
	s := &Shuffle[K, V]{
		hasher:   NewHasher[K](),
		floatKey: runfile.KeyPlanFor[K]().HasFloat(),
		opts:     opts,
		tune:     tune.resolve(opts.MaxBufferedPairs),
		nparts:   n,
		mask:     uint64(n - 1),
		parts:    make([]partitionState[K, V], n),
		diskSem:  make(chan struct{}, diskReadConcurrency),
	}
	for i := range s.parts {
		s.parts[i].idx = i
		s.parts[i].live = make(map[K][]V)
		// A nil Recorder hands out nil lanes; every emit is then a no-op.
		s.parts[i].lane = opts.Recorder.Lane(obs.LanePartition, i)
	}
	s.fs = opts.FS
	if s.fs == nil {
		s.fs = runfile.OSFS
	}
	if opts.SpillDir != "" {
		// Keys grouped after a disk round trip are compared with ==, so
		// types whose decoded copies break == (pointer fields, etc.)
		// must fail the first seal loudly instead of splitting groups;
		// values must survive without silent loss (gob drops unexported
		// struct fields without error).
		if err := runfile.CanRoundTripIdentity[K](); err != nil {
			s.spillTypeErr = fmt.Errorf("key type: %w", err)
		} else if err := runfile.CanRoundTripFidelity[V](); err != nil {
			s.spillTypeErr = fmt.Errorf("value type: %w", err)
		}
		if s.swapImage = runfile.ImageSize[Pair[K, V]](); s.swapImage == 0 {
			s.kc, s.vc = runfile.CodecFor[K](), runfile.CodecFor[V]()
		}
	}
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

// invalidateStats drops the memoized Stats profile. Every mutation of
// a partition's runs — absorbs, seals, swaps, compaction installs,
// aborts, adoptions — must route through this so a profile memoized
// mid-round is never served after the state it described has changed.
func (s *Shuffle[K, V]) invalidateStats() {
	s.statsMu.Lock()
	s.statsMemo = nil
	s.statsMu.Unlock()
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
	// The combiner changes what future seals spill, so a Stats profile
	// memoized before this call must not survive it.
	s.invalidateStats()
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
	s.invalidateStats()
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

// absorb folds one block of pairs (a single task's output for this
// partition, in emission order) into the live run, sealing at the
// memory budget. When the whole block fits under the budget the live
// value slices are pre-sized from the block's per-key counts — one
// exact growth per key instead of append-doubling — otherwise the
// block is walked pair by pair so the run seals at exactly the budget.
func (st *partitionState[K, V]) absorb(s *Shuffle[K, V], pairs []Pair[K, V]) error {
	budget := s.opts.MaxBufferedPairs
	if budget <= 0 || st.livePairs+len(pairs) < budget {
		st.absorbPresized(pairs)
		return nil
	}
	for i := range pairs {
		vs, ok := st.live[pairs[i].Key]
		if !ok && len(st.freeVs) > 0 {
			vs = st.grabSlice(1)
		}
		st.live[pairs[i].Key] = append(vs, pairs[i].Value)
		st.livePairs++
		if st.livePairs > st.maxLivePairs {
			st.maxLivePairs = st.livePairs
		}
		st.pairs++
		if st.livePairs >= budget {
			if err := st.seal(s, false); err != nil {
				return err
			}
		}
	}
	st.syncLive()
	return nil
}

// recycleLive clears the live map in place — keeping its buckets, so
// refills never pay rehash growth — and harvests the now-dead value
// slices' backing arrays for reuse by later absorbs. Only a seal that
// encoded the run may call this (to the spool, or onto a seal sink's
// writer): the encode was synchronous, so nothing else references the
// slices. The
// harvest is capped so a round whose key population shifts cannot grow
// the freelist without bound.
func (st *partitionState[K, V]) recycleLive() {
	for _, vs := range st.live {
		if cap(vs) == 0 || len(st.freeVs) >= 8192 {
			continue
		}
		clear(vs) // drop value references so recycled capacity pins nothing
		st.freeVs = append(st.freeVs, vs[:0])
	}
	clear(st.live)
}

// grabSlice returns an empty value slice with capacity at least n,
// preferring a recycled backing array. Only the freelist's top few
// entries are probed; a miss falls through to a fresh allocation.
func (st *partitionState[K, V]) grabSlice(n int) []V {
	for i, l := 0, len(st.freeVs); i < 4 && i < l; i++ {
		s := st.freeVs[l-1-i]
		if cap(s) >= n {
			st.freeVs[l-1-i] = st.freeVs[l-1]
			st.freeVs = st.freeVs[:l-1]
			return s
		}
	}
	return make([]V, 0, n)
}

// absorbPresized is absorb's under-budget fast path: count the block's
// pairs per key into the reused scratch map, grow each touched live
// slice at most once per block — to exactly what the block needs when
// that dominates, but never below doubling, so a key fed one value per
// block across many blocks still pays O(log n) growths rather than one
// per block — then append without capacity checks.
func (st *partitionState[K, V]) absorbPresized(pairs []Pair[K, V]) {
	if !st.presizeOff && len(pairs) >= 16 {
		cnt := st.scratch
		if cnt == nil {
			cnt = make(map[K]int, 64)
			st.scratch = cnt
		}
		for i := range pairs {
			cnt[pairs[i].Key]++
		}
		if len(cnt)*4 >= len(pairs)*3 {
			st.presizeOff = true // mostly distinct; counting buys nothing
		}
		for k, c := range cnt {
			vs := st.live[k]
			if cap(vs)-len(vs) < c {
				newCap := len(vs) + c
				if min := 2 * cap(vs); newCap < min {
					newCap = min
				}
				grown := st.grabSlice(newCap)[:len(vs)]
				copy(grown, vs)
				st.live[k] = grown
				if cap(vs) > 0 && len(st.freeVs) < 8192 {
					clear(vs) // old backing is dead; recycle it too
					st.freeVs = append(st.freeVs, vs[:0])
				}
			}
		}
		clear(cnt)
	}
	for i := range pairs {
		vs, ok := st.live[pairs[i].Key]
		if !ok && len(st.freeVs) > 0 {
			vs = st.grabSlice(1)
		}
		st.live[pairs[i].Key] = append(vs, pairs[i].Value)
	}
	st.livePairs += len(pairs)
	if st.livePairs > st.maxLivePairs {
		st.maxLivePairs = st.livePairs
	}
	st.pairs += int64(len(pairs))
	st.syncLive()
}

// seal closes the live run — to a disk run when a SpillDir is set,
// otherwise to the in-memory run list — and records spill pressure.
// With a combiner, the live run is combined first; a combine that
// frees at least half the budget cancels the seal and the partition
// keeps buffering, so combiner-friendly workloads spill far less than
// their raw emission volume. force overrides that cancellation: the
// streaming path must seal the live run before adopting a task's
// fenced spill runs (run order is value order), and must be able to
// shed live pairs under global memory pressure, regardless of how well
// the combine went.
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
	if s.combiner != nil {
		st.combineLive(s)
		if !force && st.livePairs <= s.opts.MaxBufferedPairs/2 {
			return nil
		}
		if st.livePairs == 0 {
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
		keys := sortedMapKeys(st.live)
		fill := func(w *runfile.Writer) error { return writeGroups(w, keys, st.live) }
		if err := s.sealSink(st.idx, fill); err != nil {
			return err
		}
	case s.opts.SpillDir != "":
		if s.spillTypeErr != nil {
			return fmt.Errorf("shuffle: cannot spill: %w", s.spillTypeErr)
		}
		if st.pspool == nil {
			st.pspool = &spool[K, V]{s: s, pattern: "mr-spool-*.run", kind: "seal spool"}
		}
		dr, body, idx, err := st.pspool.addRunGroups(sortedMapKeys(st.live), st.live, int64(st.livePairs))
		if err != nil {
			return err
		}
		st.disk = append(st.disk, dr)
		st.spilledToDisk = true
		st.bytesSpilled += body
		st.indexBytes += idx
	default:
		st.runs = append(st.runs, st.live)
		st.live = make(map[K][]V)
	}
	if s.sealSink != nil || s.opts.SpillDir != "" {
		s.addResident(-st.livePairs) // the pairs are encoded: on disk, or the sink's
		st.recycleLive()
	}
	st.spillEvents++
	st.spilledPairs += int64(st.livePairs)
	st.livePairs = 0
	st.syncLive()
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

// combineLive applies the combiner to every key group of the live run
// in place, keeping the partition's pair totals equal to the sum of
// its group counts. Keys whose combined value list comes back empty
// are dropped.
func (st *partitionState[K, V]) combineLive(s *Shuffle[K, V]) {
	post := 0
	for k, vs := range st.live {
		cv := s.combiner(k, vs)
		if len(cv) == 0 {
			delete(st.live, k)
			continue
		}
		st.live[k] = cv
		post += len(cv)
	}
	st.pairs -= int64(st.livePairs - post)
	s.addResident(post - st.livePairs)
	st.livePairs = post
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

// Pairs is the number of pairs the partition holds.
func (p Partition[K, V]) Pairs() int64 { return p.s.parts[p.idx].pairs }

// ForEachGroup streams the partition's key groups in canonical sorted
// key order through fn, k-way merging the partition's on-disk runs,
// in-memory sealed runs, and live run without materializing the
// partition. A key's values arrive concatenated across runs in seal
// order then the live run — the package's value-order contract. An
// error from fn stops the iteration and is returned; I/O and decode
// errors reading spilled runs are returned likewise. The value slices
// are stable — nothing overwrites them after fn returns, so they are
// safe to retain — but in-memory groups alias the shuffle's live and
// sealed run buffers, so treat them as read-only. Use
// ForEachGroupBatch when fn does not retain them at all.
func (p Partition[K, V]) ForEachGroup(fn func(k K, vs []V) error) error {
	return p.forEachValues(false, fn)
}

// ForEachGroupBatch is ForEachGroup under the batch arena-reuse
// contract: the value slice passed to fn is valid only during the
// call — spilled groups are decoded into one scratch slice that the
// next group reuses, so a full partition streams with one value-section
// read and one batch decode per group and run, and near-zero per-group
// allocation. fn must not retain the slice (copy it to keep
// it). Callers that retain values use ForEachGroup, whose slices stay
// stable after the call — the two are otherwise identical, key order
// and value-order contract included.
func (p Partition[K, V]) ForEachGroupBatch(fn func(k K, vs []V) error) error {
	return p.forEachValues(true, fn)
}

// ForEachGroupCount is ForEachGroup's counting mode: it streams every
// group's key and size in sorted key order by merging the spilled
// runs' resident indexes with the in-memory runs — run files are never
// opened, so the pass is pure memory. This is the cheap pass for load
// profiling and overflow diagnosis.
func (p Partition[K, V]) ForEachGroupCount(fn func(k K, count int) error) error {
	return p.forEachCount(fn)
}

// Stats is the realized communication profile of the shuffle.
type Stats struct {
	// Partitions is the effective partition count P.
	Partitions int
	// Pairs is the total number of pairs shuffled (post-combine when the
	// caller combined before buffering).
	Pairs int64
	// Keys is the total number of distinct keys across partitions —
	// the number of reducers in the paper's sense.
	Keys int64
	// PartitionPairs, PartitionKeys and PartitionMaxGroup are the
	// per-partition profiles (pairs held, distinct keys, largest single
	// key group).
	PartitionPairs    []int64
	PartitionKeys     []int64
	PartitionMaxGroup []int64
	// MaxPartitionPairs is the heaviest partition's pair count; with
	// MeanPartitionPairs it quantifies partition skew.
	MaxPartitionPairs int64
	// MaxGroup is the largest single key group — the realized reducer
	// size q.
	MaxGroup int64
	// SpillEvents and SpilledPairs report bounded-memory pressure: how
	// many runs were sealed and how many pairs they held.
	SpillEvents  int64
	SpilledPairs int64
	// BytesSpilled is the total encoded size of run data written to
	// disk — header and key groups, not the footer indexes — so it
	// tracks the communication volume the paper reasons about (zero
	// without a SpillDir). With a combiner pushed down (SetCombiner) it
	// tracks the post-combine communication cost rather than the raw
	// emission volume. IndexBytesSpilled is the metadata written on
	// top: the prefix-compressed footer indexes; total file bytes are
	// the sum of the two.
	BytesSpilled      int64
	IndexBytesSpilled int64
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
	// GroupSizeLog2 is the log2-bucketed distribution of key-group
	// sizes — the realized reducer-input (q) distribution the paper's
	// bounds are stated over. Bucket i counts the keys whose group size
	// lies in [2^i, 2^(i+1)); the slice is trimmed after the last
	// non-empty bucket (nil when the shuffle is empty).
	GroupSizeLog2 []int64
	// MaxLivePairs is the high-water mark of any partition's live
	// buffer. Under a memory budget it never exceeds MaxBufferedPairs:
	// the proof that execution stayed within budget.
	MaxLivePairs int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// held in shuffle memory at once: live runs, staged streaming
	// blocks, and in-memory sealed runs, summed over partitions. With a
	// SpillDir the streaming ingestion path keeps it under
	// P*MaxBufferedPairs + writers*blockPairs — the bound that makes
	// the communication cost, not the dataset size, the limit on
	// resident memory.
	PeakResidentPairs int64
}

// Skew is max/mean partition load, 1 for a perfectly even exchange and
// 0 for an empty one.
func (st Stats) Skew() float64 {
	if st.Pairs == 0 || st.Partitions == 0 {
		return 0
	}
	mean := float64(st.Pairs) / float64(st.Partitions)
	return float64(st.MaxPartitionPairs) / mean
}

// String renders a one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf("P=%d pairs=%d keys=%d maxq=%d skew=%.2f spills=%d",
		st.Partitions, st.Pairs, st.Keys, st.MaxGroup, st.Skew(), st.SpillEvents)
}

// Stats computes the shuffle's realized profile. The walk is pure
// memory even for spilled partitions — each disk run's (key, count)
// index is resident, so no run file is read. The result is memoized:
// repeat calls return the cached profile (with the cumulative I/O
// counters — DiskBytesRead, SwapBytes, BytesReclaimed — and the
// resident peak refreshed, since those keep accruing after the
// profile stabilizes) until the next mutation invalidates it. The error is non-nil only when the shuffle's
// spilled state is unreadable (for example after Close).
func (s *Shuffle[K, V]) Stats() (Stats, error) {
	s.statsMu.Lock()
	if s.statsMemo != nil {
		st := *s.statsMemo
		s.statsMu.Unlock()
		// Fresh per-partition slices, as a computed Stats would return:
		// a caller sorting or scaling its result must not corrupt the
		// memo for later calls.
		st.PartitionPairs = append([]int64(nil), st.PartitionPairs...)
		st.PartitionKeys = append([]int64(nil), st.PartitionKeys...)
		st.PartitionMaxGroup = append([]int64(nil), st.PartitionMaxGroup...)
		st.GroupSizeLog2 = append([]int64(nil), st.GroupSizeLog2...)
		st.DiskBytesRead = s.diskRead.Load()
		st.SwapBytes = s.swapBytes.Load()
		st.BytesReclaimed = s.bytesReclaimed.Load()
		st.PeakResidentPairs = s.peakResident.Load()
		return st, nil
	}
	s.statsMu.Unlock()
	st, err := s.computeStats()
	if err != nil {
		return st, err
	}
	memo := st
	s.statsMu.Lock()
	s.statsMemo = &memo
	s.statsMu.Unlock()
	return st, nil
}

// DiskBytesRead is the cumulative number of bytes read back from spill
// run files so far (see Stats.DiskBytesRead).
func (s *Shuffle[K, V]) DiskBytesRead() int64 { return s.diskRead.Load() }

// Totals is the shuffle's profile without its per-key part: Keys,
// MaxGroup, PartitionKeys, PartitionMaxGroup and GroupSizeLog2 stay
// zero, so it costs no merge. A caller whose own merge yields every
// group counts them (GroupProfile) and folds them in (AddGroups).
func (s *Shuffle[K, V]) Totals() Stats {
	st := Stats{
		Partitions:        s.nparts,
		PartitionPairs:    make([]int64, s.nparts),
		PartitionKeys:     make([]int64, s.nparts),
		PartitionMaxGroup: make([]int64, s.nparts),
	}
	for p := range s.parts {
		ps := &s.parts[p]
		st.PartitionPairs[p] = ps.pairs
		st.Pairs += ps.pairs
		st.MaxPartitionPairs = max(st.MaxPartitionPairs, ps.pairs)
		st.SpillEvents += ps.spillEvents
		st.SpilledPairs += ps.spilledPairs
		st.BytesSpilled += ps.bytesSpilled
		st.IndexBytesSpilled += ps.indexBytes
		st.MaxLivePairs = max(st.MaxLivePairs, ps.maxLivePairs)
		if nruns := len(ps.runs) + len(ps.disk) + liveRun(ps.livePairs); nruns > 1 {
			st.RunsMerged += int64(nruns)
		}
	}
	st.DiskBytesRead = s.diskRead.Load()
	st.SwapBytes = s.swapBytes.Load()
	st.BytesReclaimed = s.bytesReclaimed.Load()
	st.PeakResidentPairs = s.peakResident.Load()
	return st
}

// computeStats is Totals plus the per-key profile, counted by one
// counting merge per partition, in parallel.
func (s *Shuffle[K, V]) computeStats() (Stats, error) {
	st := s.Totals()
	profiles := make([]GroupProfile, s.nparts)
	errs := make([]error, s.nparts)
	var wg sync.WaitGroup
	for p := 0; p < s.nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ps := &s.parts[p]
			if len(ps.runs) == 0 && !ps.spilledToDisk {
				for _, vs := range ps.live {
					profiles[p].Add(len(vs))
				}
				return
			}
			// Spilled partitions merge their resident run indexes with
			// the in-memory runs: a pure in-memory pass.
			errs[p] = s.Partition(p).forEachCount(func(_ K, count int) error {
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
// (Keys, MaxGroup, PartitionKeys, PartitionMaxGroup, GroupSizeLog2,
// which stays trimmed after its last non-empty bucket). A partition's
// groups may arrive as several profiles, one per key range.
func (st *Stats) AddGroups(p int, g *GroupProfile) {
	st.Keys += g.Keys
	st.PartitionKeys[p] += g.Keys
	st.PartitionMaxGroup[p] = max(st.PartitionMaxGroup[p], g.MaxGroup)
	st.MaxGroup = max(st.MaxGroup, g.MaxGroup)
	for i, n := range g.Log2 {
		if n == 0 {
			continue
		}
		if len(st.GroupSizeLog2) <= i {
			st.GroupSizeLog2 = append(st.GroupSizeLog2, make([]int64, i+1-len(st.GroupSizeLog2))...)
		}
		st.GroupSizeLog2[i] += n
	}
}

// log2Bucket maps a group size to its GroupSizeLog2 bucket:
// floor(log2(n)), with sizes < 1 folded into bucket 0.
func log2Bucket(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len64(uint64(n)) - 1
}

// liveRun is 1 when a partition's live buffer holds pairs, else 0.
func liveRun(livePairs int) int {
	if livePairs > 0 {
		return 1
	}
	return 0
}
