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
// P*MemoryBudget + writers*blockPairs instead of the dataset size.
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
// k-way merge's (key, run order) tree of losers needs to reproduce the
// contract.
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
// relieves itself by *swapping*: the staged blocks are written
// verbatim — unsorted, uncombined, ungrouped — as one raw section of a
// per-partition stash file, newest tasks first, and read back in
// block-sized chunks at the moment their task's turn to absorb comes.
// The stash is private to this process and each section is read back
// once, in the same round, so a pair type made only of numbers swaps
// as its memory image — one copy out, one read straight into a block,
// nothing encoded; other pair types are framed pair by pair in the
// run-file codec, resolved once per shuffle.
// The swapped bytes are pure bookkeeping: they never become shuffle
// output, so the partition's seal points — and therefore BytesSpilled,
// SpillEvents and every other spill statistic — remain a pure function
// of the committed pair stream, independent of flush timing, recorder
// overhead, or scheduling; the bench pins that two identical rounds
// report the same BytesSpilled.
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
// task's blocks written verbatim (memory image or codec-framed, see
// spool.addSwap) at [off, off+size) of the refcounted file, holding
// pairs raw (pre-combine) pairs. The section is released
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
// blockPairs pairs, the per-writer term of the resident-memory bound.
// A key that is not == to itself (a NaN) fails the round with
// ErrNaNKey instead: it could never be grouped.
func (w *TaskWriter[K, V]) Emit(k K, v V) {
	s := w.in.s
	if s.floatKey && k != k {
		w.in.fail(fmt.Errorf("%w: key %v", ErrNaNKey, k))
		return
	}
	p := s.PartitionOf(k)
	blk := w.buckets[p]
	if blk == nil {
		blk = s.getBlock()
	}
	w.buckets[p] = append(blk, Pair[K, V]{k, v})
	w.buffered++
	if w.buffered >= s.tune.blockPairs {
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
// exactly the workers*blockPairs term of the resident bound.
func (in *Ingester[K, V]) ingestStep(st *partitionState[K, V], allowSwap bool) error {
	var started bool
	var start time.Time
	begin := func() {
		if !started {
			started, start = true, time.Now()
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
			// absorb has moved each into the live run.)
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
			// A block leaves stagedPairs only once it is in the live run:
			// in between, the flush path's lock-free check sees it twice,
			// never not at all — it may relieve early, not miss pairs.
			err := st.absorb(in.s, blk)
			st.stageMu.Lock()
			st.stagedPairs -= len(blk)
			st.stageMu.Unlock()
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

// absorbSwapped reads one pressure-swapped section back from the stash
// straight into the live arena's tail, a block at a time and never past
// the budget, so the run seals where absorbing the same pairs would
// have sealed it; it releases the section afterwards.
func (in *Ingester[K, V]) absorbSwapped(st *partitionState[K, V], sec swapSec) error {
	s := in.s
	// Each read uses the stash's open handle while the section still
	// lives in the current stash file, else reopens the file by path —
	// the section may have been rotated out before the read-back began,
	// or by a swap the read-back itself triggers (the section's own
	// reference keeps the file in place). The readback is deliberately
	// not metered into DiskBytesRead: that counter means "spill run bytes
	// read", the engine's memory-only diagnosis asserts it stays zero
	// before reduce, and swap traffic is already fully visible as
	// SwapBytes (each section is written and read back exactly once). A
	// short read means the stash changed under the round: corrupt.
	var reopened runfile.File
	defer func() {
		if reopened != nil {
			reopened.Close()
		}
	}()
	read := func(p []byte, off int64) error {
		var ra io.ReaderAt = reopened
		if st.stash != nil && st.stash.rf == sec.rf && st.stash.f != nil {
			ra = st.stash.f
		} else if reopened == nil {
			f, err := s.fs.Open(sec.rf.path)
			if err != nil {
				return fmt.Errorf("shuffle: reopening swap spool %s: %w", sec.rf.path, err)
			}
			reopened, ra = f, f
		}
		if m, err := ra.ReadAt(p, off); m < len(p) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("shuffle: reading swap spool %s: %w: %w", sec.rf.path, runfile.ErrCorrupt, err)
		}
		return nil
	}
	// A section is the pair count, then the pairs: a memory image is
	// read straight into the arena, block by block, and must be exactly
	// header plus count pairs long, or every pair read from it would be
	// misaligned; a framed section is read whole into swapBuf and decoded
	// into the arena.
	var hdr [binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hdr[:0], uint64(sec.pairs))
	var rest []byte // a framed section's pairs
	if s.swapImage > 0 {
		if want := int64(len(h)) + int64(sec.pairs)*int64(s.swapImage); sec.size != want {
			return fmt.Errorf("shuffle: swap spool %s: %w: section of %d bytes, %d pairs need %d",
				sec.rf.path, runfile.ErrCorrupt, sec.size, sec.pairs, want)
		}
		if err := read(h, sec.off); err != nil {
			return err
		}
	} else {
		if int64(cap(st.swapBuf)) < sec.size {
			st.swapBuf = make([]byte, sec.size)
		}
		if err := read(st.swapBuf[:sec.size], sec.off); err != nil {
			return err
		}
		h, rest = st.swapBuf[:len(h)], st.swapBuf[len(h):sec.size]
	}
	if n, m := binary.Uvarint(h); m != len(h) || int(n) != sec.pairs {
		return fmt.Errorf("shuffle: swap spool %s: %w: section header says %d pairs, expected %d",
			sec.rf.path, runfile.ErrCorrupt, n, sec.pairs)
	}
	off := sec.off + int64(len(h))
	err := st.take(s, sec.pairs, s.tune.blockPairs, func(tail []Pair[K, V]) error {
		// The pairs re-enter shuffle memory block by block, next to
		// whatever later tasks staged here since the swap, and the live
		// run they grow seals only at the full budget. Make room first —
		// shed those staged blocks to the stash — or the partition holds
		// a full live run plus a budget of staged pairs.
		if budget := s.opts.MaxBufferedPairs; st.livePairs+st.stagedTotal()+len(tail) > budget {
			if err := in.swapStaged(st, budget); err != nil {
				return err
			}
		}
		if s.swapImage > 0 {
			b := runfile.ImageBytes(tail)
			if err := read(b, off); err != nil {
				return err
			}
			off += int64(len(b))
			s.addResident(len(tail))
			return nil
		}
		for i := range tail {
			var kb, vb []byte
			ok := false
			if kb, rest, ok = nextFrame(rest); ok {
				vb, rest, ok = nextFrame(rest)
			}
			if !ok {
				return fmt.Errorf("shuffle: swap spool %s: %w: truncated swapped pair", sec.rf.path, runfile.ErrCorrupt)
			}
			var err error
			if tail[i].Key, err = st.decodeSwappedKey(s.kc.Decode, kb); err != nil {
				return fmt.Errorf("shuffle: decoding swapped key in spool %s: %w", sec.rf.path, err)
			}
			if tail[i].Value, err = s.vc.Decode(vb); err != nil {
				return fmt.Errorf("shuffle: decoding swapped value in spool %s: %w", sec.rf.path, err)
			}
		}
		s.addResident(len(tail))
		return nil
	})
	if err != nil {
		return err
	}
	sec.rf.dead.Add(sec.size)
	if err := sec.rf.release(s.fs, &s.bytesReclaimed); err != nil {
		return fmt.Errorf("shuffle: removing swap spool %s: %w", sec.rf.path, err)
	}
	return nil
}

// nextFrame splits one length-prefixed frame off the front of b.
func nextFrame(b []byte) (frame, rest []byte, ok bool) {
	l, m := binary.Uvarint(b)
	if m <= 0 || l > uint64(len(b)-m) {
		return nil, nil, false
	}
	return b[m : m+int(l)], b[m+int(l):], true
}

// decodeSwappedKey decodes one swapped pair's key with dec, interning
// string keys through the partition's dedup table: the readback
// revisits each hot key once per pair, and the map lookup on the raw
// bytes is allocation-free, so repeat keys share one decoded string
// instead of allocating per pair. Non-string keys decode directly.
func (st *partitionState[K, V]) decodeSwappedKey(dec func([]byte) (K, error), kb []byte) (K, error) {
	var zero K
	if _, isString := any(zero).(string); !isString {
		return dec(kb)
	}
	if k, ok := st.intern[string(kb)]; ok {
		return k, nil
	}
	k, err := dec(kb)
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
// outgrew tuning.rotateBytes, so a long round's spools reclaim
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
	wbuf    []byte          // reused swap-section buffer
	kbuf    []byte          // reused key/value encode scratch (framed swaps)
	broken  bool            // a failed append left bytes of unknown length; stop appending
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
		if re := s.tune.rotateBytes; re > 0 && sp.rf.dead.Load() >= re {
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

// addRun appends one sorted, combined run of the given keys and pairs
// to the spool — fill encodes its groups — reusing one runfile.Writer
// (and its write buffer) across every run the spool ever writes. The
// run ends at its last group: its index stays resident (typedIndex),
// and no reader of a spool looks for a footer.
func (sp *spool[K, V]) addRun(keys []K, pairs int64, fill func(w *runfile.Writer) error) (dr diskRun[K], retErr error) {
	if err := sp.ensure(); err != nil {
		return dr, err
	}
	if sp.w == nil {
		sp.w = runfile.NewWriter(sp.f)
	} else {
		sp.w.Reset(sp.f)
	}
	w := sp.w
	if err := fill(w); err != nil {
		sp.broken = true
		return dr, fmt.Errorf("shuffle: spilling to %s %s: %w", sp.kind, sp.f.Name(), err)
	}
	if err := w.Flush(); err != nil {
		sp.broken = true
		return dr, fmt.Errorf("shuffle: flushing %s %s: %w", sp.kind, sp.f.Name(), err)
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
	return dr, nil
}

// addSwap appends one staged task's blocks as a single raw section, in
// one Write: the pair count, then the pairs in flush order — no
// grouping, no sort, no combine, because the bytes come straight back
// at absorb time and must reproduce the exact staged stream. A pair
// type with a memory image (Shuffle.swapImage) is written as the
// blocks' memory; any other is framed pair by pair, key then value,
// each length-prefixed in its codec encoding.
func (sp *spool[K, V]) addSwap(blocks [][]Pair[K, V], nPairs int) (sec swapSec, retErr error) {
	if err := sp.ensure(); err != nil {
		return sec, err
	}
	s := sp.s
	buf := binary.AppendUvarint(sp.wbuf[:0], uint64(nPairs))
	for _, blk := range blocks {
		if s.swapImage > 0 {
			buf = append(buf, runfile.ImageBytes(blk)...)
			continue
		}
		kb := sp.kbuf
		var err error
		for i := range blk {
			if kb, err = s.kc.Append(kb[:0], blk[i].Key); err != nil {
				return sec, fmt.Errorf("shuffle: swapping key: %w", err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(kb)))
			buf = append(buf, kb...)
			if kb, err = s.vc.Append(kb[:0], blk[i].Value); err != nil {
				return sec, fmt.Errorf("shuffle: swapping value: %w", err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(kb)))
			buf = append(buf, kb...)
		}
		sp.kbuf = kb
	}
	sp.wbuf = buf
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
