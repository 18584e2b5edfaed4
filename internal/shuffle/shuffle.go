// Package shuffle implements the partitioned grouped shuffle that sits
// between the map and reduce phases of the mr runtime.
//
// The paper's whole subject is the data volume crossing this boundary
// (the communication cost, from which the replication rate r is derived)
// and how it is divided among reducers (the reducer size q). The seed
// runtime modeled the boundary as a single global map merged under one
// goroutine; this package replaces it with a real partitioned exchange:
// keys are hashed into P partitions, each map task's writer buckets its
// output by partition and seals each bucket as a sorted run (the
// Ingester, ingest.go — the only way pairs enter a Shuffle besides
// AdoptRun), and each partition keeps its tasks' runs in task order.
// The per-partition pair counts, key counts and largest key group that
// the package reports are therefore properties of an actual execution,
// not post-hoc accounting.
//
// Keys are placed by their compiled key plan's hash (StableHasher), a
// pure function of the key's value and the placement seed (WithSeed),
// rather than by formatting the key with fmt and hashing the string,
// which the seed runtime did.
//
// An optional bounded-memory mode caps the pairs a writer buffers for a
// partition, and the pairs all writers buffer at P times that: a run is
// sealed at the cap and, when a SpillDir is configured, encoded in
// sorted-key order to a disk run file (internal/runfile). At read time
// each partition streams its key groups through a k-way merge over its
// runs, so a partition several times larger than its budget is reduced
// without ever being resident at once. Without a SpillDir, sealed runs
// stay in memory and only the spill pressure is reported.
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
	// When positive, a map task's writer seals its buffer for a
	// partition as a run on reaching this many pairs, and the writers
	// of a round buffer at most P times this many together. Stats
	// reports the spill pressure.
	MaxBufferedPairs int

	// SpillDir, when set together with MaxBufferedPairs, makes sealed
	// runs real: each is encoded in sorted-key order to a temp run
	// file under this directory and dropped from memory. Read APIs
	// stream a k-way merge over the runs. Call Close to delete the
	// files. When empty, sealed runs stay in memory.
	SpillDir string

	// FS overrides the filesystem behind spill run files. Nil selects
	// the real filesystem (runfile.OSFS); fault-injection tests thread
	// an errfs.FS here to fail chosen creates, reads, writes and
	// closes.
	FS runfile.FS

	// Recorder, when non-nil, receives the shuffle's lifecycle events:
	// seals, compactions and reduce-time merges, each on its
	// partition's lane. Nil disables recording at the cost of one
	// nil-check per event — the hot data path is identical either way.
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
// them (New resolves the zero tuning): the compaction width and the
// spool rotation threshold are fixed. The package's tests pin them
// (newTuned) to make I/O orders and run shapes exact.
type tuning struct {
	// compactors is how many partitions Finish closes and compacts at
	// once; negative runs them one at a time in partition order, which
	// makes a single-goroutine round's I/O order deterministic (the
	// fault-injection tests march over it).
	compactors int
	// rotateBytes bounds the dead bytes (runs of aborted attempts) a
	// spool file may accumulate before a fresh file takes over and the
	// old one is deleted once its last live run is released; negative
	// disables rotation.
	rotateBytes int64
}

// resolve fills in every knob a test left zero. Compaction is I/O-heavy
// and already bounded by diskSem, so two partitions compact at once.
// Spools rotate at 4 MiB of dead bytes.
func (t tuning) resolve() tuning {
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
	combiner    func(K, []V) []V // optional associative pre-aggregation, applied at seal and compaction
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

	bytesReclaimed atomic.Int64     // spill-file bytes deleted mid-round (rotation, compaction)
	vc             runfile.Codec[V] // V's codec, resolved once for the merge cursors

	// bufs recycles writers' buckets and seal scratch between the
	// round's task attempts (writerBufs).
	bufs sync.Pool

	// resident counts the pairs currently held in shuffle memory
	// (writers' buckets, in-memory sealed runs); peakResident is its
	// whole-round high-water mark, kept under P*MaxBufferedPairs plus
	// the in-memory sealed runs. maxLive is the largest bucket any
	// writer sealed.
	resident     atomic.Int64
	peakResident atomic.Int64
	maxLive      atomic.Int64
}

// partitionState is one partition's runs and counters, shared during
// ingestion between the writers that publish to it under mu.
type partitionState[K comparable, V any] struct {
	mu            sync.Mutex      // guards all fields during ingestion
	idx           int             // this partition's index
	runs          []*memRun[K, V] // sealed in-memory runs, in task order
	disk          []diskRun[K]    // sealed on-disk runs, in task order
	spilledToDisk bool            // ever had a disk run (sticky across Close)
	pairs         int64
	spillEvents   int64
	spilledPairs  int64
	bytesSpilled  int64

	// enc is the partition's run encoder, and pspool its seal spool: one
	// shared temp file (per rotation epoch) receiving every run sealed to
	// disk for this partition, opened by the first such seal and closed
	// by Ingester.Finish (Close is the safety net).
	enc    GroupEncoder[K, V]
	pspool *spool[K, V]

	// lane is the partition's observability ring (nil when the shuffle
	// has no Recorder — every emit is then a nil-check no-op). Span
	// events on it are emitted under mu, so they nest.
	lane *obs.Ring
}

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
		tune:     tune.resolve(),
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
	s.vc = runfile.CodecFor[V]()
	return s
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
// shuffle memory at once (writers' buckets, in-memory sealed runs).
func (s *Shuffle[K, V]) PeakResidentPairs() int64 { return s.peakResident.Load() }

// SetPartitioner overrides hash placement with an explicit key-to-
// partition function (reduced modulo the partition count). It must be
// called before ingestion starts.
func (s *Shuffle[K, V]) SetPartitioner(fn func(K) int) {
	s.partitioner = fn
}

// SetCombiner pushes an associative pre-aggregation down into the
// shuffle's sealing path: under a memory budget, each key's buffered
// values are combined before a writer seals its run, and again across
// runs when disk runs are compacted. Spilled bytes then track the post-combine communication
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
// canonical SortKeys order, values in emission order: the bytes the
// shuffle's own spool would have received). The sink finishes the
// writer and owns what the bytes become. An error from fill that is not
// the writer's own (runfile.Writer.Err) is an encoding failure.
type SealSink func(part int, fill func(w *runfile.Writer) error) error

// SetSealSink redirects every sealed run to fn, as the writer seals it.
// The shuffle keeps nothing: resident pairs drop by the run's size, no
// run is recorded, and nothing is compacted, so the sink is the
// exchange medium. This is how an external executor (internal/proc's
// map workers) reuses the map side — budget-driven sealing, combiner
// push-down and the one run encoder — while keeping its own
// section/commit protocol. fn runs under the partition lock, on the
// writer's goroutine. Must be set before ingestion starts.
func (s *Shuffle[K, V]) SetSealSink(fn SealSink) {
	s.sealSink = fn
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

// chunkPairs is the most pairs a writer buffers for one partition with
// no budget: a fuller bucket is sorted into an in-memory run, so a
// bucket grows by values and group ends rather than whole pairs.
const chunkPairs = 1 << 14

// memRun is a sorted run in memory — a sealed run kept without a
// SpillDir, a seal's scratch — in one flat form: keys in canonical
// order, and keys[g]'s values, in emission order, at
// vals[ends[g-1]:ends[g]] (from 0 for g = 0). task is the map task a
// sealed run came from, its place in the partition's run order.
type memRun[K comparable, V any] struct {
	keys []K
	ends []int
	vals []V
	task int
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
// key's values keep their emission order. The sort moves a permutation,
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
// sorted key order through fn, k-way merging the partition's runs
// without materializing the partition. A key's values arrive
// concatenated across runs in task order — the package's value-order
// contract — in one
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
	// SwapBytes is always 0: the shuffle writes nothing but its runs.
	// It stays declared while the benchmark's swap lane reads it.
	SwapBytes int64
	// BytesReclaimed is the total size of spill files deleted while the
	// round was still running — spool rotation retiring aborted
	// attempts' runs and compaction releasing its inputs — i.e. disk
	// given back before Close.
	BytesReclaimed int64
	// RunsMerged is the number of runs that the reduce-time k-way merges
	// combine, summed over the partitions holding more than one.
	RunsMerged int64
	// MaxLivePairs is the largest buffer any map task's writer held for
	// one partition. Under a memory budget it never exceeds
	// MaxBufferedPairs: the proof that execution stayed within budget.
	MaxLivePairs int
	// PeakResidentPairs is the whole-round high-water mark of pairs
	// held in shuffle memory at once: the writers' buffers, and the
	// in-memory sealed runs when there is no SpillDir. The writers
	// together buffer at most P*MaxBufferedPairs — each its share of it,
	// split over the writer count the executor gave NewIngester — so
	// with a SpillDir that is the bound, and the communication cost,
	// not the dataset size, is the limit on resident memory.
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
		if nruns := len(ps.runs) + len(ps.disk); nruns > 1 {
			st.RunsMerged += int64(nruns)
		}
	}
	st.MaxLivePairs = int(s.maxLive.Load())
	st.DiskBytesRead = s.diskRead.Load()
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
