// Streaming shuffle ingestion: the pipelined map→shuffle data path, and
// the only way pairs are written into a Shuffle.
//
// Collecting every map task's entire output until the map phase ends
// would honor the memory budget only after that point and never overlap
// spill I/O with map CPU. The Ingester streams in blocks instead: each
// map worker emits into small per-partition blocks (backed by the
// shuffle's sync.Pool) and flushes a full block immediately to its partition,
// which absorbs it under a per-partition lock — concurrently with
// still-running map tasks — sealing, combining and spilling as the
// budget fills. Sorting, encoding and disk writes therefore overlap
// mapping, and whole-round resident pairs stay bounded by
// P*MemoryBudget + writers*BlockPairs instead of the dataset size.
//
// Two invariants make this safe:
//
// Ordering. The runtime's deterministic output contract requires a
// key's values to appear in (task order, emission order within the
// task). Flushed blocks from concurrent tasks arrive interleaved, so a
// partition does not absorb them on arrival: it stages them per task
// and absorbs staged tasks strictly in task-index order, and only once
// every earlier task has finished (the Ingester's watermark). Within a
// partition, absorption order therefore equals task order, which makes
// seal order equal task order, which is exactly what the read-side
// k-way merge's (key, run order) heap needs to reproduce the contract.
//
// Fencing. A failed task attempt may already have flushed blocks; its
// pairs must never become visible. Staged runs are tagged with (task,
// attempt) and remain invisible to absorption until the attempt
// commits; Abort discards the attempt's staged blocks (and releases
// any pressure-swapped sections). Because only committed tasks absorb,
// a retry can re-emit from scratch without double counting.
//
// Staged data under memory pressure cannot be absorbed (its task has
// not committed) and cannot be dropped, so an over-budget partition
// relieves itself by *swapping*: the staged blocks are encoded
// verbatim — unsorted, uncombined, ungrouped — as one raw section of a
// per-partition stash file, newest tasks first, and read back in
// block-sized chunks at the moment their task's turn to absorb comes.
// The swapped bytes are pure bookkeeping: they never become shuffle
// output, so the partition's seal points — and therefore BytesSpilled,
// SpillEvents and every other spill statistic — remain a pure function
// of the committed pair stream, independent of flush timing, recorder
// overhead, or scheduling. (The previous design relieved pressure by
// early-sealing the live run and writing staged data as combined
// *runs*, which made spilled bytes timing-sensitive: two identical
// rounds could legitimately report different BytesSpilled depending on
// when relief fired. The bench now pins the invariant that they
// cannot.)
//
// All relief writes append to per-partition spool files with
// refcounted sections (see spool): seals share one spool file per
// partition, swaps share a stash file, so relief costs no file churn
// no matter how many sections it writes, and rotation retires a spool
// whose sections have mostly died (absorbed, aborted or compacted
// away) so long rounds reclaim disk mid-round.
//
// The division of labor matters as much as the mechanisms: flushing is
// an O(1) staging append, absorption runs on committing workers (and
// the final Finish drain), and a flush only does ingest work itself as
// the over-budget backstop. The worker running the oldest task IS the
// watermark — everything else's staged data waits on it — so the flush
// path must never make that worker wait behind relief I/O.
package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// swapSec is one pressure-swapped section of a stash file: a staged
// task's blocks encoded verbatim at [off, off+size) of the refcounted
// file, holding pairs raw (pre-combine) pairs. The section is released
// — and its bytes counted toward the stash's rotation trigger — when
// the task absorbs or aborts.
type swapSec struct {
	rf    *runFile
	off   int64
	size  int64
	pairs int
}

// stagedRun is one task attempt's flushed-but-unabsorbed output for a
// single partition: pressure-swapped sections first (earlier flushes
// shed to the stash), then in-memory blocks, both in flush order.
type stagedRun[K comparable, V any] struct {
	attempt int
	blocks  [][]Pair[K, V] // flushed blocks not yet absorbed, in flush order
	pairs   int            // in-memory pairs across blocks
	swapped []swapSec      // pressure-swapped earlier flushes, in swap order
}

// Ingester is the streaming ingestion front of a Shuffle: a set of
// per-task TaskWriters feeding per-partition staging, plus the
// watermark that gates absorption to task order. Create one per map
// phase; TaskWriters may be used from concurrent workers (one writer
// per worker at a time), and task indexes must be contiguous from 0 in
// dispatch order for the watermark to advance.
type Ingester[K comparable, V any] struct {
	s *Shuffle[K, V]

	mu   sync.Mutex   // guards done
	done map[int]bool // finished tasks at or above the watermark
	wm   atomic.Int64 // all tasks < wm are committed (or round-fatal)

	errMu sync.Mutex
	err   error

	finishing atomic.Bool  // Finish's drain is running; stop metering overlap
	overlapNs atomic.Int64 // ns of absorb/spill work overlapped with mapping
	finishNs  atomic.Int64 // wall ns of the Finish drain (the residual barrier)
}

// NewIngester starts an ingestion round on the shuffle. It must not run
// concurrently with another round, reads, AdoptRun, or Close.
func (s *Shuffle[K, V]) NewIngester() *Ingester[K, V] {
	s.invalidateStats() // the profile is about to change
	return &Ingester[K, V]{s: s, done: make(map[int]bool)}
}

// Err returns the first error the ingestion hit (a failed seal, swap
// or compaction), or nil. Once set, further flushes are dropped and
// every Commit returns the error.
func (in *Ingester[K, V]) Err() error {
	in.errMu.Lock()
	defer in.errMu.Unlock()
	return in.err
}

func (in *Ingester[K, V]) fail(err error) {
	in.errMu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.errMu.Unlock()
}

// OverlapNs is the time spent absorbing, sealing and spilling while
// map tasks were still running — work a collect-then-merge design
// would serialize after the map phase. FinishNs is the wall time of the
// Finish drain, the residual barrier.
func (in *Ingester[K, V]) OverlapNs() int64 { return in.overlapNs.Load() }
func (in *Ingester[K, V]) FinishNs() int64  { return in.finishNs.Load() }

// Task starts (or retries) one map task's writer. attempt tags the
// writer's flushes so a failed attempt can be fenced off; the engine
// retries a task serially, so at most one attempt per task is live.
func (in *Ingester[K, V]) Task(task, attempt int) *TaskWriter[K, V] {
	return &TaskWriter[K, V]{
		in: in, task: task, attempt: attempt,
		buckets: make([][]Pair[K, V], in.s.nparts),
	}
}

// TaskWriter buffers one task attempt's emissions into per-partition
// blocks, flushing the fullest block whenever the buffered total
// reaches the shuffle's block budget. Not safe for concurrent use.
type TaskWriter[K comparable, V any] struct {
	in       *Ingester[K, V]
	task     int
	attempt  int
	buckets  [][]Pair[K, V] // open block per partition
	buffered int            // pairs across open blocks, <= blockPairs
	done     bool
}

// Emit buffers one pair, flushing a block when the writer's buffered
// total reaches the block budget — so a writer never holds more than
// BlockPairs pairs, the per-writer term of the resident-memory bound.
func (w *TaskWriter[K, V]) Emit(k K, v V) {
	s := w.in.s
	p := s.PartitionOf(k)
	blk := w.buckets[p]
	if blk == nil {
		blk = s.getBlock()
	}
	w.buckets[p] = append(blk, Pair[K, V]{k, v})
	w.buffered++
	if w.buffered >= s.blockPairs {
		w.flushLargest()
	}
}

// flushLargest flushes the fullest open block, keeping flushed blocks
// chunky (at least buffered/P pairs) without per-partition thresholds
// that a skewed key space would starve.
func (w *TaskWriter[K, V]) flushLargest() {
	best, bestLen := -1, 0
	for p, blk := range w.buckets {
		if len(blk) > bestLen {
			best, bestLen = p, len(blk)
		}
	}
	if best >= 0 {
		w.flush(best)
	}
}

func (w *TaskWriter[K, V]) flush(p int) {
	blk := w.buckets[p]
	w.buckets[p] = nil
	w.buffered -= len(blk)
	w.in.stage(w.task, w.attempt, p, blk)
}

// Commit flushes the writer's remaining blocks, marks the task
// finished (advancing the watermark when it is the next expected
// task), and opportunistically drains newly absorbable partitions on
// the committing worker — map-phase CPU doing shuffle work. It returns
// the ingestion's first error, which is fatal for the round (the
// task's data may be partially absorbed; it must not be retried).
func (w *TaskWriter[K, V]) Commit() error {
	if w.done {
		return w.in.Err()
	}
	w.done = true
	for p, blk := range w.buckets {
		if len(blk) > 0 {
			w.flush(p)
		} else if blk != nil {
			w.in.s.putBlock(blk)
			w.buckets[p] = nil
		}
	}
	w.in.finishTask(w.task)
	w.in.drainAll()
	return w.in.Err()
}

// Abort discards the attempt: unflushed blocks return to the pool, and
// the attempt's staged blocks and swapped stash sections are removed
// from every partition. The task may then be retried under a new
// attempt; none of the aborted attempt's pairs are visible anywhere.
func (w *TaskWriter[K, V]) Abort() {
	if w.done {
		return
	}
	w.done = true
	s := w.in.s
	for p, blk := range w.buckets {
		if blk != nil {
			s.putBlock(blk)
			w.buckets[p] = nil
		}
	}
	w.in.discard(w.task, w.attempt)
}

// stage appends a flushed block to its partition's staged run for the
// task — an O(1) append under the partition's tiny staging lock, so
// flushing never waits behind an absorb or a disk spill. A flush never
// makes anything newly absorbable (only commits advance the
// watermark), so the ingest step runs here only as backpressure: when
// the exchange is over its global budget, the flush blocks until it
// has relieved pressure itself, which is what makes the resident bound
// hold.
func (in *Ingester[K, V]) stage(task, attempt, p int, blk []Pair[K, V]) {
	s := in.s
	if len(blk) == 0 || in.Err() != nil {
		s.putBlock(blk)
		return
	}
	// Staging is an O(1) append under the tiny staging lock: the flush
	// path must never wait behind another worker's absorb or spill,
	// because the worker running the *oldest* task is the watermark —
	// every other task's staged data waits on its commit, and a
	// watermark worker stuck behind relief I/O turns commit pileup into
	// swap pressure into more relief I/O (the storm this design had to
	// engineer out). Absorption is driven by committers (drainAll) and
	// Finish; a flush only stops to run the ingest step itself when its
	// partition is over budget — the hard backstop that keeps the
	// resident bound true, checked against the lock-free live mirror.
	st := &s.parts[p]
	st.stageMu.Lock()
	sr := st.staged[task]
	if sr == nil {
		if st.staged == nil {
			st.staged = make(map[int]*stagedRun[K, V])
		}
		sr = &stagedRun[K, V]{attempt: attempt}
		st.staged[task] = sr
	}
	sr.blocks = append(sr.blocks, blk)
	sr.pairs += len(blk)
	staged := st.stagedPairs + len(blk)
	st.stagedPairs = staged
	st.stageMu.Unlock()
	s.addResident(len(blk))
	st.lane.Instant(obs.OpBlockFlush, int64(task), int64(len(blk)))

	budget := s.opts.MaxBufferedPairs
	if budget > 0 && s.opts.SpillDir != "" && int(st.liveApprox.Load())+staged >= budget {
		st.mu.Lock()
		err := in.ingestStep(st, true)
		st.mu.Unlock()
		if err != nil {
			in.fail(err)
		}
	}
}

// finishTask marks the task committed and advances the watermark over
// every contiguously finished task.
func (in *Ingester[K, V]) finishTask(task int) {
	in.mu.Lock()
	in.done[task] = true
	wm := int(in.wm.Load())
	for in.done[wm] {
		delete(in.done, wm)
		wm++
	}
	in.wm.Store(int64(wm))
	in.mu.Unlock()
}

// discard removes an aborted attempt's staged state from every
// partition: blocks back to the pool, swapped stash sections released.
// It takes the work lock before the staging lock so it cannot
// interleave with a swap that has the attempt's blocks mid-write.
func (in *Ingester[K, V]) discard(task, attempt int) {
	s := in.s
	for p := range s.parts {
		st := &s.parts[p]
		st.mu.Lock()
		st.stageMu.Lock()
		if sr := st.staged[task]; sr != nil && sr.attempt == attempt {
			st.lane.Instant(obs.OpFenceAbort, int64(task), int64(attempt))
			for _, blk := range sr.blocks {
				s.putBlock(blk)
			}
			s.addResident(-sr.pairs)
			st.stagedPairs -= sr.pairs
			for _, sec := range sr.swapped {
				// The section's bytes are dead: count them toward the
				// stash's rotation trigger and drop the file when this
				// was the last holder. A removal failure cannot be
				// reported from Abort; the path is retried at close.
				sec.rf.dead.Add(sec.size)
				sec.rf.release(s.fs, &s.bytesReclaimed)
			}
			delete(st.staged, task)
			s.invalidateStats()
		}
		st.stageMu.Unlock()
		st.mu.Unlock()
	}
}

// drainAll runs the ingest step over every partition that has staged
// data the watermark now allows (or that is swap-eligible under
// pressure). Committers are the streaming path's absorption engine:
// every commit sweeps the partitions, so staged data drains within one
// commit interval of becoming absorbable while the flush path stays
// O(1). The quick stageMu peek keeps the pass cheap for partitions
// with nothing to do.
func (in *Ingester[K, V]) drainAll() {
	// Pressure only marks a partition non-idle when swapping could
	// actually relieve it — with no SpillDir the sweep would lock and
	// scan over-budget partitions forever to do nothing.
	budget := in.s.opts.MaxBufferedPairs
	canSwap := budget > 0 && in.s.opts.SpillDir != ""
	for p := range in.s.parts {
		st := &in.s.parts[p]
		wm := int(in.wm.Load())
		st.stageMu.Lock()
		idle := st.minStagedBelow(wm) < 0 && !(canSwap && st.stagedPairs >= budget)
		st.stageMu.Unlock()
		if idle {
			continue
		}
		st.mu.Lock()
		err := in.ingestStep(st, true)
		st.mu.Unlock()
		if err != nil {
			in.fail(err)
		}
	}
}

// ingestStep, with the partition lock held, absorbs every staged task
// the watermark allows (in task order) and then — when allowSwap is
// set — swaps this partition's staged blocks to the stash while the
// partition is over its memory budget. The live run is never sealed
// early and staged data is never written as shuffle runs: relief moves
// raw bytes only, so where the seal points fall — and with them every
// spill statistic — depends only on the committed pair stream, never
// on when pressure happened to fire. Each flush that lands over the
// threshold swaps its own partition's staged data, so every staged
// pair is clamped by its partition's next flush or drain; transient
// overshoot is at most one in-flight block per writer, which is
// exactly the workers*BlockPairs term of the resident bound.
func (in *Ingester[K, V]) ingestStep(st *partitionState[K, V], allowSwap bool) error {
	var started bool
	var start time.Time
	begin := func() {
		if !started {
			started, start = true, time.Now()
			// The step is about to change the partition's profile
			// (absorbs move pairs, swaps move residency); a Stats memo
			// taken mid-round must not survive it.
			in.s.invalidateStats()
		}
	}
	defer func() {
		if started && !in.finishing.Load() {
			in.overlapNs.Add(time.Since(start).Nanoseconds())
		}
	}()

	// Absorb every staged run the watermark allows, in task order. The
	// staging area is re-read each iteration (watermark included), so a
	// long drain picks up tasks committed while it ran.
	for {
		wm := int(in.wm.Load())
		st.stageMu.Lock()
		task := st.minStagedBelow(wm)
		var sr *stagedRun[K, V]
		readBack := false
		if task >= 0 {
			sr = st.staged[task]
			// A run with swapped sections stays staged while they are read
			// back, one per iteration: its in-memory blocks — the task's
			// later flushes — must remain swappable, or the read-back
			// would raise the live run to the budget next to them.
			// (A detached run's blocks stay in stagedPairs until
			// absorbCounted has moved each into the live run.)
			if readBack = len(sr.swapped) > 0; !readBack {
				delete(st.staged, task)
			}
		}
		st.stageMu.Unlock()
		if sr == nil {
			break
		}
		begin()
		if readBack {
			if err := in.absorbSwapped(st, sr.swapped[0]); err != nil {
				return err
			}
			st.stageMu.Lock()
			sr.swapped = sr.swapped[1:]
			st.stageMu.Unlock()
			continue
		}
		for _, blk := range sr.blocks {
			err := st.absorbCounted(in.s, blk)
			in.s.putBlock(blk)
			if err != nil {
				return err
			}
		}
	}

	// Pressure relief. The criterion is local — this partition's
	// live+staged pairs against its own budget — so every partition
	// acts on its own signal (a global measure would push partitions to
	// swap staged data while the real excess sat in someone else's live
	// run). Swapping brings live+staged down to half the budget
	// (hysteresis: relief events are half as frequent and twice as
	// chunky as a swap-to-budget would be), newest tasks first — the
	// oldest staged runs are the next to absorb, and swapping data
	// moments before it becomes absorbable is the one pure waste in
	// this design. The live run is left alone: it seals at exactly the
	// budget through the regular absorb path and never before, which is
	// what keeps the spill statistics deterministic. Summed over
	// partitions this caps resident pairs at P*budget plus the workers'
	// in-flight blocks: the advertised whole-round bound.
	budget := in.s.opts.MaxBufferedPairs
	if allowSwap && budget > 0 && in.s.opts.SpillDir != "" {
		if st.livePairs+st.stagedTotal() >= budget {
			begin()
			if err := in.swapStaged(st, budget); err != nil {
				return err
			}
		}
	}
	return nil
}

// stagedTotal reports the partition's staged in-memory pairs.
func (st *partitionState[K, V]) stagedTotal() int {
	st.stageMu.Lock()
	defer st.stageMu.Unlock()
	return st.stagedPairs
}

// minStagedBelow returns the smallest staged task index under the
// watermark, or -1. Staged tasks under the watermark are committed:
// aborted attempts were discarded, and the watermark only passes
// finished tasks. Caller holds stageMu.
func (st *partitionState[K, V]) minStagedBelow(wm int) int {
	best := -1
	for t := range st.staged {
		if t < wm && (best < 0 || t < best) {
			best = t
		}
	}
	return best
}

// absorbCounted folds into the live run a block that stagedPairs still
// counts, and only then drops it from the count: between the two the
// block is visible twice to the flush path's lock-free check (live
// mirror and staged), never not at all — the check may relieve early,
// it cannot miss resident pairs.
func (st *partitionState[K, V]) absorbCounted(s *Shuffle[K, V], blk []Pair[K, V]) error {
	err := st.absorb(s, blk)
	st.stageMu.Lock()
	st.stagedPairs -= len(blk)
	st.stageMu.Unlock()
	return err
}

// absorbSwapped reads one pressure-swapped section back from the stash
// and folds its pairs into the partition in block-sized chunks,
// releasing the section afterwards. The stash's open handle is reused
// when the section still lives in the current stash file; a section in
// a rotated-out file is reopened by path.
func (in *Ingester[K, V]) absorbSwapped(st *partitionState[K, V], sec swapSec) error {
	s := in.s
	var ra io.ReaderAt
	if st.stash != nil && st.stash.rf == sec.rf && st.stash.f != nil {
		ra = st.stash.f
	} else {
		f, err := s.fs.Open(sec.rf.path)
		if err != nil {
			return fmt.Errorf("shuffle: reopening swap spool %s: %w", sec.rf.path, err)
		}
		defer f.Close()
		ra = f
	}
	// The readback is deliberately not metered into DiskBytesRead: that
	// counter means "spill run bytes read", the engine's memory-only
	// diagnosis asserts it stays zero before reduce, and swap traffic is
	// already fully visible as SwapBytes (each section is written and
	// read back exactly once).
	if int64(cap(st.swapBuf)) < sec.size {
		st.swapBuf = make([]byte, sec.size)
	}
	buf := st.swapBuf[:sec.size]
	if _, err := io.ReadFull(io.NewSectionReader(ra, sec.off, sec.size), buf); err != nil {
		return fmt.Errorf("shuffle: reading swap spool %s: %w", sec.rf.path, err)
	}

	n, m := binary.Uvarint(buf)
	if m <= 0 || int(n) != sec.pairs {
		return fmt.Errorf("shuffle: swap spool %s: %w: section header says %d pairs, expected %d",
			sec.rf.path, runfile.ErrCorrupt, n, sec.pairs)
	}
	rest := buf[m:]
	next := func() ([]byte, error) {
		l, m := binary.Uvarint(rest)
		if m <= 0 || int64(l) > int64(len(rest)-m) {
			return nil, fmt.Errorf("shuffle: swap spool %s: %w: truncated swapped pair",
				sec.rf.path, runfile.ErrCorrupt)
		}
		b := rest[m : m+int(l)]
		rest = rest[m+int(l):]
		return b, nil
	}
	if cap(st.swapChunk) < s.blockPairs {
		st.swapChunk = make([]Pair[K, V], 0, s.blockPairs)
	}
	chunk := st.swapChunk[:0]
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// The pairs re-enter shuffle memory chunk by chunk, next to
		// whatever later tasks staged here since the swap, and the live
		// run they grow seals only at the full budget. Make room first —
		// shed those staged blocks to the stash — or the partition holds
		// a full live run plus a budget of staged pairs.
		if budget := s.opts.MaxBufferedPairs; st.livePairs+st.stagedTotal()+len(chunk) > budget {
			if err := in.swapStaged(st, budget); err != nil {
				return err
			}
		}
		// The chunk counts as staged while it is absorbed, like any
		// block; absorb copies the pairs into the live run, so the chunk
		// slice is reused.
		st.stageMu.Lock()
		st.stagedPairs += len(chunk)
		st.stageMu.Unlock()
		s.addResident(len(chunk))
		err := st.absorbCounted(s, chunk)
		chunk = chunk[:0]
		return err
	}
	for i := 0; i < int(n); i++ {
		kb, err := next()
		if err != nil {
			return err
		}
		k, err := st.decodeSwappedKey(kb)
		if err != nil {
			return fmt.Errorf("shuffle: decoding swapped key in spool %s: %w", sec.rf.path, err)
		}
		vb, err := next()
		if err != nil {
			return err
		}
		v, err := runfile.Decode[V](vb)
		if err != nil {
			return fmt.Errorf("shuffle: decoding swapped value in spool %s: %w", sec.rf.path, err)
		}
		chunk = append(chunk, Pair[K, V]{k, v})
		if len(chunk) >= s.blockPairs {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	sec.rf.dead.Add(sec.size)
	if err := sec.rf.release(s.fs, &s.bytesReclaimed); err != nil {
		return fmt.Errorf("shuffle: removing swap spool %s: %w", sec.rf.path, err)
	}
	return nil
}

// decodeSwappedKey decodes one swapped pair's key, interning string
// keys through the partition's dedup table: the readback revisits each
// hot key once per pair, and the map lookup on the raw bytes is
// allocation-free, so repeat keys share one decoded string instead of
// allocating per pair. Non-string keys decode directly.
func (st *partitionState[K, V]) decodeSwappedKey(kb []byte) (K, error) {
	var zero K
	if _, isString := any(zero).(string); !isString {
		return runfile.Decode[K](kb)
	}
	if k, ok := st.intern[string(kb)]; ok {
		return k, nil
	}
	k, err := runfile.Decode[K](kb)
	if err != nil {
		return zero, err
	}
	if st.intern == nil {
		st.intern = make(map[string]K)
	}
	st.intern[any(k).(string)] = k
	return k, nil
}

// swapStaged sheds staged blocks to the partition's stash under memory
// pressure, detaching them newest-task-first, until the partition's
// live+staged pairs drop to half its budget (or nothing staged
// remains). The sections rejoin the stream only when their task
// absorbs; Abort releases them.
func (in *Ingester[K, V]) swapStaged(st *partitionState[K, V], budget int) (err error) {
	s := in.s
	if s.spillTypeErr != nil {
		return fmt.Errorf("shuffle: cannot swap staged pairs: %w", s.spillTypeErr)
	}
	if st.stash == nil {
		st.stash = &spool[K, V]{s: s, pattern: "mr-swap-*.spool", kind: "swap spool"}
	}
	var swapped int64
	spanOpen := false
	defer func() {
		if spanOpen {
			st.lane.End(obs.OpFence, swapped, obs.ErrFlag(err))
		}
	}()
	for {
		st.stageMu.Lock()
		var sr *stagedRun[K, V]
		newest, pairs := -1, 0
		if st.livePairs+st.stagedPairs > budget/2 {
			for t, c := range st.staged {
				if c.pairs > 0 && t > newest {
					sr, newest, pairs = c, t, c.pairs
				}
			}
		}
		var blocks [][]Pair[K, V]
		if sr != nil {
			// stagedPairs drops only once the blocks are written and
			// released below: until then they are still resident.
			blocks = sr.blocks
			sr.blocks, sr.pairs = nil, 0
		}
		st.stageMu.Unlock()
		if sr == nil {
			return nil
		}
		if !spanOpen {
			// Opened lazily: swapStaged often finds relief already done.
			spanOpen = true
			st.lane.Begin(obs.OpFence, 0, 0)
		}
		sec, werr := st.stash.addSwap(blocks, pairs)
		if werr != nil {
			return werr
		}
		for _, blk := range blocks {
			s.putBlock(blk)
		}
		s.addResident(-pairs)
		s.swapBytes.Add(sec.size)
		swapped += int64(pairs)
		// Reattach under the staging lock. discard cannot run between
		// the detach above and here (it takes st.mu first, which the
		// ingest step holds), so the section always lands on a staged
		// run that is still the attempt's.
		st.stageMu.Lock()
		sr.swapped = append(sr.swapped, sec)
		st.stagedPairs -= pairs
		st.stageMu.Unlock()
	}
}

// spool accumulates independently releasable sections in one temp
// file: a partition's seal runs share one spool file ("seal spool"),
// its pressure swaps another ("swap spool"), so relief costs no file
// churn no matter how many sections it writes. The refcounted runFile
// keeps each section independently releasable (Abort drops only its
// own sections, compaction its inputs, absorption its readbacks), the
// open writer holds one reference of its own released by close, and
// rotation retires a file whose dead bytes — released sections —
// outgrew Options.SpoolRotateBytes, so a long round's spools reclaim
// disk instead of growing monotonically.
type spool[K comparable, V any] struct {
	s       *Shuffle[K, V]
	pattern string // CreateTemp pattern ("mr-spool-*.run", "mr-swap-*.spool")
	kind    string // error-message noun ("seal spool", "swap spool")
	f       runfile.File
	rf      *runFile
	off     int64
	n       int             // sections written into the current file
	w       *runfile.Writer // reused across runs (Reset), nil until first run
	wbuf    []byte          // reused swap-section encode buffer
	kbuf    []byte          // reused key/value encode scratch
	broken  bool            // a failed append left bytes of unknown length; stop appending
}

// rotateEvery resolves Options.SpoolRotateBytes: the dead-byte
// threshold at which a spool rotates to a fresh file, 0 when rotation
// is disabled.
func rotateEvery(v int64) int64 {
	if v == 0 {
		return 4 << 20
	}
	if v < 0 {
		return 0
	}
	return v
}

// ensure opens the spool's current file, rotating first when the file
// has accumulated enough dead bytes. Rotation creates the replacement
// before letting go of the old file — a failed create keeps the old
// spool working, because rotation is an optimization, never
// correctness — then releases the writer's hold on the old file, which
// deletes it as soon as its last live section is released and credits
// the reclaimed bytes.
func (sp *spool[K, V]) ensure() error {
	s := sp.s
	if sp.broken {
		return fmt.Errorf("shuffle: %s %s unusable after earlier write failure", sp.kind, sp.rf.path)
	}
	if sp.f != nil {
		if re := rotateEvery(s.opts.SpoolRotateBytes); re > 0 && sp.rf.dead.Load() >= re {
			if f, err := s.fs.CreateTemp(s.opts.SpillDir, sp.pattern); err == nil {
				old, oldRF := sp.f, sp.rf
				sp.f, sp.rf, sp.off, sp.n = f, &runFile{path: f.Name()}, 0, 0
				sp.rf.refs.Store(1)
				// The old handle is done: surviving sections are reopened
				// by path (merge cursors, swap readback), so only the
				// writer held it. Close errors are unactionable here.
				old.Close()
				if rerr := oldRF.release(s.fs, &s.bytesReclaimed); rerr != nil {
					return fmt.Errorf("shuffle: removing rotated %s %s: %w", sp.kind, oldRF.path, rerr)
				}
			}
		}
		return nil
	}
	f, err := s.fs.CreateTemp(s.opts.SpillDir, sp.pattern)
	if err != nil {
		return fmt.Errorf("shuffle: creating %s: %w", sp.kind, err)
	}
	sp.f, sp.rf, sp.off, sp.n = f, &runFile{path: f.Name()}, 0, 0
	sp.rf.refs.Store(1) // the open writer's own hold, released by close
	return nil
}

// addRunGroups appends one already-grouped, already-combined run to
// the spool, keys in sorted order, reusing one runfile.Writer (and its
// write buffer) across every run the spool ever writes.
func (sp *spool[K, V]) addRunGroups(keys []K, groups map[K][]V, pairs int64) (dr diskRun[K], body, idx int64, retErr error) {
	if err := sp.ensure(); err != nil {
		return dr, 0, 0, err
	}
	if sp.w == nil {
		sp.w = runfile.NewWriter(sp.f)
	} else {
		sp.w.Reset(sp.f)
	}
	w := sp.w
	if err := writeGroups(w, keys, groups); err != nil {
		sp.broken = true
		return dr, 0, 0, fmt.Errorf("shuffle: spilling to %s %s: %w", sp.kind, sp.f.Name(), err)
	}
	if err := w.Finish(); err != nil {
		sp.broken = true
		return dr, 0, 0, fmt.Errorf("shuffle: flushing %s %s: %w", sp.kind, sp.f.Name(), err)
	}
	dr = diskRun[K]{
		file: sp.rf, off: sp.off, size: w.BytesWritten(), pairs: pairs,
		index: typedIndex(keys, w.Index()),
	}
	sp.off += w.BytesWritten()
	sp.rf.size.Store(sp.off)
	sp.n++
	// Reference the run immediately: a compaction in the same step may
	// release it long before the spool closes.
	sp.rf.refs.Add(1)
	return dr, w.BodyBytes(), w.BytesWritten() - w.BodyBytes(), nil
}

// addSwap appends one staged task's blocks as a single raw section: a
// pair count followed by each pair's length-framed encoded key and
// value, in flush order — no grouping, no sort, no combine, because
// the bytes come straight back at absorb time and must reproduce the
// exact staged stream.
func (sp *spool[K, V]) addSwap(blocks [][]Pair[K, V], nPairs int) (sec swapSec, retErr error) {
	if err := sp.ensure(); err != nil {
		return sec, err
	}
	buf := binary.AppendUvarint(sp.wbuf[:0], uint64(nPairs))
	kb := sp.kbuf
	var err error
	for _, blk := range blocks {
		for i := range blk {
			if kb, err = runfile.Append(kb[:0], blk[i].Key); err != nil {
				return sec, fmt.Errorf("shuffle: swapping key: %w", err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(kb)))
			buf = append(buf, kb...)
			if kb, err = runfile.Append(kb[:0], blk[i].Value); err != nil {
				return sec, fmt.Errorf("shuffle: swapping value: %w", err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(kb)))
			buf = append(buf, kb...)
		}
	}
	sp.wbuf, sp.kbuf = buf, kb
	if _, err := sp.f.Write(buf); err != nil {
		sp.broken = true
		return sec, fmt.Errorf("shuffle: writing %s %s: %w", sp.kind, sp.f.Name(), err)
	}
	sec = swapSec{rf: sp.rf, off: sp.off, size: int64(len(buf)), pairs: nPairs}
	sp.off += int64(len(buf))
	sp.rf.size.Store(sp.off)
	sp.n++
	sp.rf.refs.Add(1)
	return sec, nil
}

// close releases the writer's hold on the spool file (removing it when
// no recorded section survives — for a drained stash that is the
// normal case, and the removal credits reclaimed when non-nil) and
// closes the handle. Both the close and the removal can fail and both
// are reported — a leaked spill file is as real a failure as a leaked
// run file — except on a spool already marked broken, whose append
// failure surfaced first.
func (sp *spool[K, V]) close(reclaimed *atomic.Int64) error {
	if sp.f == nil {
		return nil
	}
	closeErr := sp.f.Close()
	releaseErr := sp.rf.release(sp.s.fs, reclaimed)
	sp.f, sp.w = nil, nil
	if sp.broken {
		return nil
	}
	if closeErr != nil && sp.n > 0 {
		return fmt.Errorf("shuffle: closing %s %s: %w", sp.kind, sp.rf.path, closeErr)
	}
	if releaseErr != nil {
		return fmt.Errorf("shuffle: removing %s %s: %w", sp.kind, sp.rf.path, releaseErr)
	}
	return nil
}

// Finish drains every partition to completion — the residual barrier,
// run in parallel across partitions — closes the partitions' spools,
// waits out the background compaction queue, and returns the
// ingestion's first error. After Finish (with all tasks committed)
// every pair is absorbed and the shuffle is ready for Stats and reads.
func (in *Ingester[K, V]) Finish() error {
	start := time.Now()
	in.finishing.Store(true)
	s := in.s
	workers := runtime.GOMAXPROCS(0)
	if workers > s.nparts {
		workers = s.nparts
	}
	var wg sync.WaitGroup
	pCh := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pCh {
				st := &s.parts[p]
				st.mu.Lock()
				err := in.ingestStep(st, true)
				// The round's ingest writes are done; release the spools'
				// write handles. A fully drained stash is removed here and
				// its bytes credited as reclaimed; the seal spool usually
				// survives until Close on its runs' references.
				if st.pspool != nil {
					if cerr := st.pspool.close(&s.bytesReclaimed); cerr != nil && err == nil {
						err = cerr
					}
					st.pspool = nil
				}
				if st.stash != nil {
					if cerr := st.stash.close(&s.bytesReclaimed); cerr != nil && err == nil {
						err = cerr
					}
					st.stash = nil
				}
				st.mu.Unlock()
				if err != nil {
					in.fail(err)
				}
			}
		}()
	}
	for p := 0; p < s.nparts; p++ {
		pCh <- p
	}
	close(pCh)
	wg.Wait()
	// Background compactions may still be rewriting run files; the
	// round must not report success while one of them is failing
	// (nothing else would surface the error before reads hit missing
	// files).
	if err := s.waitCompactions(); err != nil {
		in.fail(err)
	}
	in.finishNs.Add(time.Since(start).Nanoseconds())
	return in.Err()
}
