// Map-side ingestion: the only way a round's pairs enter a Shuffle
// besides AdoptRun.
//
// Every map task attempt writes through its own TaskWriter, the map
// side of Dean and Ghemawat's MapReduce (OSDI 2004): the writer buckets
// the attempt's pairs by partition, buffers them, and seals each bucket
// as one sorted run. A bucket seals when it reaches the partition
// budget, the writer's largest bucket seals when the writer reaches its
// share of the round's memory — P*MaxBufferedPairs split across the
// concurrent writers, a count the executor passes to NewIngester — and
// Commit seals what is left. A seal sorts the bucket (memRun.sortFrom),
// folds it with the shuffle's combiner under a budget, and writes it
// through the partition's one run encoder to the partition's seal spool
// (SpillDir) or seal sink, or keeps it in memory. Sorting, encoding and
// disk writes therefore run on the map workers while other tasks map,
// and the pairs a round buffers stay under P*MaxBufferedPairs however
// large its output.
//
// Ordering. The output contract wants a key's values in (task order,
// emission order within the task). Every run carries its task, and a
// partition keeps its runs in (task, seal) order however the commits
// interleave, so the read side's merge, a tree of losers on (key, run
// order), yields each key's values in exactly that order. Compaction,
// the one step that merges runs, runs in Finish, once every task has
// committed.
//
// Fencing. A writer's sealed runs stay its own until Commit publishes
// them to their partitions; Abort releases them. A failed attempt's
// pairs are never visible, and a retry re-emits from scratch.
//
// Nothing is relieved, swapped or read back: every byte the ingester
// writes is a run of the shuffle, and where the seals fall — and with it
// BytesSpilled and every other spill statistic — is a pure function of
// each task's pair stream and the writer count.
package shuffle

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// Ingester is the ingestion front of a Shuffle for one map phase: it
// hands out one TaskWriter per task attempt, and Finish ends the phase.
// TaskWriters may be used from concurrent workers, one writer per
// worker at a time.
type Ingester[K comparable, V any] struct {
	s *Shuffle[K, V]
	// bucketCap is the most pairs a writer buffers for one partition:
	// the budget, or chunkPairs without one. share is the most it
	// buffers across its buckets before it seals its largest (0: no
	// bound).
	bucketCap, share int

	errMu sync.Mutex
	err   error

	overlapNs atomic.Int64 // ns writers spent sealing runs while mapping
	finishNs  atomic.Int64 // wall ns of Finish (compaction, the residual barrier)
}

// NewIngester starts an ingestion round on the shuffle, for at most
// writers concurrent TaskWriters (one when omitted): each buffers at
// most its share of the round's memory, P*MaxBufferedPairs/writers
// pairs. The count decides the bound, so a caller running n writers
// must pass n: under the default of one, n writers buffer n times the
// round's memory. (The count is optional only until the benchmark's
// one caller passes it; it is then to become required.) It must not
// run concurrently with another round, reads, AdoptRun, or Close.
func (s *Shuffle[K, V]) NewIngester(writers ...int) *Ingester[K, V] {
	in := &Ingester[K, V]{s: s, bucketCap: chunkPairs}
	if b := s.opts.MaxBufferedPairs; b > 0 {
		n := 1
		if len(writers) > 0 {
			n = max(writers[0], 1)
		}
		in.bucketCap = b
		in.share = max(s.nparts*b/n, 1)
	}
	return in
}

// Err returns the first error the ingestion hit (a failed seal or
// compaction, a NaN key), or nil. Once set, further seals are dropped
// and every Commit returns the error.
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

// OverlapNs is the time writers spent sealing runs — sorting, combining,
// encoding and writing them — while map tasks were running: work a
// collect-then-merge design would serialize after the map phase.
// FinishNs is the wall time of Finish, the residual barrier.
func (in *Ingester[K, V]) OverlapNs() int64 { return in.overlapNs.Load() }
func (in *Ingester[K, V]) FinishNs() int64  { return in.finishNs.Load() }

// Task starts (or retries) one map task's writer. Its runs are its own
// until Commit, so the writer needs no copy of the attempt number.
func (in *Ingester[K, V]) Task(task, attempt int) *TaskWriter[K, V] {
	b, _ := in.s.bufs.Get().(*writerBufs[K, V])
	if b == nil {
		b = &writerBufs[K, V]{buckets: make([][]Pair[K, V], in.s.nparts)}
	}
	return &TaskWriter[K, V]{in: in, task: task, writerBufs: b}
}

// writerBufs is a writer's reusable memory: its per-partition buckets
// and its seal's sort and combine scratch. Writers pass it on through
// the shuffle's pool, so a round allocates about one per concurrent
// writer.
type writerBufs[K comparable, V any] struct {
	buckets          [][]Pair[K, V]
	sorted, combined memRun[K, V]
}

// TaskWriter buffers and seals one task attempt's emissions. Not safe
// for concurrent use.
type TaskWriter[K comparable, V any] struct {
	in   *Ingester[K, V]
	task int
	*writerBufs[K, V]
	buffered int             // pairs across the buckets
	resident int             // pairs held in memory: buckets and in-memory runs
	counted  int             // the part of resident the shuffle's resident count holds
	maxLive  int             // largest bucket sealed
	runs     []heldRun[K, V] // sealed runs, in seal order, until Commit or Abort
	done     bool
}

// heldRun is one sealed run of pairs pairs a writer holds for
// partition part: in memory when mem is set, on disk when disk.file is,
// else already the seal sink's (held only to be counted).
type heldRun[K comparable, V any] struct {
	part  int
	pairs int64
	disk  diskRun[K]
	mem   *memRun[K, V]
}

// residentStep is how many pairs a writer buffers between updates of
// the shuffle's resident count: often enough that the peak is within a
// step per writer, rarely enough that Emit stays off the shared counter.
const residentStep = 64

// Emit buffers one pair, sealing its bucket when the bucket reaches the
// cap and the writer's largest bucket when the writer reaches its share.
// A key that is not == to itself (a NaN) fails the round with ErrNaNKey
// instead: it could never be grouped.
func (w *TaskWriter[K, V]) Emit(k K, v V) {
	in := w.in
	if in.s.floatKey && k != k {
		in.fail(fmt.Errorf("%w: key %v", ErrNaNKey, k))
		return
	}
	p := in.s.PartitionOf(k)
	w.buckets[p] = append(w.buckets[p], Pair[K, V]{k, v})
	w.buffered++
	if w.resident++; w.resident-w.counted >= residentStep {
		w.sync()
	}
	switch {
	case len(w.buckets[p]) >= in.bucketCap:
		w.seal(p, false)
	case in.share > 0 && w.buffered >= in.share:
		w.seal(w.largest(), true)
	}
}

// largest is the writer's fullest bucket, the lowest partition on a tie.
func (w *TaskWriter[K, V]) largest() int {
	best := 0
	for p, b := range w.buckets {
		if len(b) > len(w.buckets[best]) {
			best = p
		}
	}
	return best
}

// sync brings the shuffle's resident count up to the writer's.
func (w *TaskWriter[K, V]) sync() {
	w.in.s.addResident(w.resident - w.counted)
	w.counted = w.resident
}

// seal sorts bucket p into a run and hands it on: to the partition's
// seal spool (SpillDir) or seal sink, or into the writer's in-memory
// runs. Under a budget a combiner folds the run first, and a fold that
// leaves at most half the bucket cap keeps the folded pairs buffered
// instead, unless force: Commit, and a writer at its share, must free
// the bucket. A failure fails the round.
func (w *TaskWriter[K, V]) seal(p int, force bool) {
	in, s := w.in, w.in.s
	bucket := w.buckets[p]
	if len(bucket) == 0 {
		return
	}
	w.sync() // the peak sees the bucket whole
	w.maxLive = max(w.maxLive, len(bucket))
	w.buckets[p], w.buffered, w.resident = bucket[:0], w.buffered-len(bucket), w.resident-len(bucket)
	defer w.sync()
	if in.Err() != nil {
		clear(bucket)
		return
	}
	start := time.Now()
	defer func() { in.overlapNs.Add(time.Since(start).Nanoseconds()) }()

	keep := s.sealSink == nil && s.opts.SpillDir == ""
	combine := s.combiner != nil && s.opts.MaxBufferedPairs > 0
	run := &w.sorted
	if keep && !combine {
		run = new(memRun[K, V])
	}
	run.sortFrom(bucket)
	clear(bucket)
	if combine {
		out := &w.combined
		if keep {
			out = new(memRun[K, V])
		}
		run = run.combine(s.combiner, out)
		if !force && len(run.vals) <= in.bucketCap/2 {
			for g, k := range run.keys {
				for _, v := range run.group(g) {
					w.buckets[p] = append(w.buckets[p], Pair[K, V]{k, v})
				}
			}
			w.buffered += len(run.vals)
			w.resident += len(run.vals)
			return
		}
	}
	if keep {
		w.resident += len(run.vals)
	}
	run.task = w.task
	if err := s.parts[p].write(s, run, keep, &w.runs); err != nil {
		in.fail(err)
	}
}

// write hands a sealed run to the partition under its lock, inside its
// seal span, and adds it to runs: kept in memory, or encoded to the
// partition's seal sink or, as a disk run, to its seal spool.
func (st *partitionState[K, V]) write(s *Shuffle[K, V], run *memRun[K, V], keep bool, runs *[]heldRun[K, V]) (err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	h := heldRun[K, V]{part: st.idx, pairs: int64(len(run.vals))}
	st.lane.Begin(obs.OpSeal, h.pairs, 0)
	defer func() { st.lane.End(obs.OpSeal, h.pairs, obs.ErrFlag(err)) }()
	switch {
	case keep:
		h.mem = run
	case s.sealSink != nil:
		sunk := run // the sink keeps fill: let only this copy escape
		err = s.sealSink(st.idx, func(w *runfile.Writer) error { return st.enc.run(w, sunk, true) })
	default:
		if st.pspool == nil {
			st.pspool = &spool[K, V]{s: s}
		}
		h.disk, err = st.pspool.addRun(run.keys, h.pairs, func(w *runfile.Writer) error { return st.enc.run(w, run, false) })
		h.disk.task = run.task
	}
	if err == nil {
		*runs = append(*runs, h)
	}
	return err
}

// Commit seals the writer's remaining buckets and publishes its runs to
// their partitions, each partition's after every run of an earlier task.
// It returns the ingestion's first error, which is fatal for the round;
// the attempt's runs are then released, not published.
func (w *TaskWriter[K, V]) Commit() error {
	if w.done {
		return w.in.Err()
	}
	for p := range w.buckets {
		w.seal(p, true)
	}
	if err := w.in.Err(); err != nil {
		w.Abort()
		return err
	}
	w.done = true
	s := w.in.s
	slices.SortStableFunc(w.runs, func(a, b heldRun[K, V]) int { return a.part - b.part })
	for i := 0; i < len(w.runs); {
		j := i + 1
		for j < len(w.runs) && w.runs[j].part == w.runs[i].part {
			j++
		}
		s.parts[w.runs[i].part].publish(w.task, w.runs[i:j], s.opts.MaxBufferedPairs > 0)
		i = j
	}
	// The in-memory runs are the partitions' now, and stay counted.
	w.counted, w.resident = 0, 0
	w.finish()
	return nil
}

// publish inserts one attempt's runs of the partition after every run of
// a task at or before task, and counts them; budgeted counts them as
// spills.
func (st *partitionState[K, V]) publish(task int, runs []heldRun[K, V], budgeted bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var disk []diskRun[K]
	var mem []*memRun[K, V]
	for _, r := range runs {
		switch {
		case r.mem != nil:
			mem = append(mem, r.mem)
		case r.disk.file != nil:
			disk = append(disk, r.disk)
			st.bytesSpilled += r.disk.size
			st.spilledToDisk = true
		}
		st.pairs += r.pairs
		if budgeted {
			st.spillEvents++
			st.spilledPairs += r.pairs
		}
	}
	if len(disk) > 0 {
		i := sort.Search(len(st.disk), func(i int) bool { return st.disk[i].task > task })
		st.disk = slices.Insert(st.disk, i, disk...)
	}
	if len(mem) > 0 {
		i := sort.Search(len(st.runs), func(i int) bool { return st.runs[i].task > task })
		st.runs = slices.Insert(st.runs, i, mem...)
	}
}

// Abort discards the attempt: its buckets are emptied and its sealed
// runs released — a disk run's bytes count toward its spool's rotation,
// and the spool's own hold keeps the file until Finish closes it. The
// task may then be retried under a new attempt; none of the aborted
// attempt's pairs are visible anywhere.
func (w *TaskWriter[K, V]) Abort() {
	if w.done {
		return
	}
	w.done = true
	s := w.in.s
	for _, r := range w.runs {
		if r.disk.file != nil {
			r.disk.file.dead.Add(r.disk.size)
			r.disk.file.release(s.fs, &s.bytesReclaimed)
		}
	}
	for p, b := range w.buckets {
		clear(b)
		w.buckets[p] = b[:0]
	}
	w.resident = 0
	w.sync()
	w.finish()
}

// finish records the writer's largest bucket and returns its buffers to
// the pool.
func (w *TaskWriter[K, V]) finish() {
	s := w.in.s
	for cur := s.maxLive.Load(); int64(w.maxLive) > cur && !s.maxLive.CompareAndSwap(cur, int64(w.maxLive)); {
		cur = s.maxLive.Load()
	}
	w.runs = nil
	s.bufs.Put(w.writerBufs)
	w.writerBufs = nil
}

// spool accumulates a partition's sealed runs in one temp file, so a
// round's seals cost no file churn however many it writes. The
// refcounted runFile keeps each run independently releasable (Abort
// drops only its attempt's runs, compaction its inputs), the open
// writer holds one reference of its own released by close, and rotation
// retires a file whose dead bytes — released runs — outgrew
// tuning.rotateBytes, so a round with many aborted attempts reclaims
// disk instead of growing monotonically.
type spool[K comparable, V any] struct {
	s      *Shuffle[K, V]
	f      runfile.File
	rf     *runFile
	off    int64
	n      int             // runs written into the current file
	w      *runfile.Writer // reused across runs (Reset), nil until first run
	broken bool            // a failed append left bytes of unknown length; stop appending
}

// ensure opens the spool's current file, rotating first when the file
// has accumulated enough dead bytes. Rotation creates the replacement
// before letting go of the old file — a failed create keeps the old
// spool working, because rotation is an optimization, never
// correctness — then releases the writer's hold on the old file, which
// deletes it as soon as its last live run is released and credits the
// reclaimed bytes.
func (sp *spool[K, V]) ensure() error {
	s := sp.s
	if sp.broken {
		return fmt.Errorf("shuffle: seal spool %s unusable after earlier write failure", sp.rf.path)
	}
	if sp.f != nil {
		if re := s.tune.rotateBytes; re > 0 && sp.rf.dead.Load() >= re {
			if f, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spool-*.run"); err == nil {
				old, oldRF := sp.f, sp.rf
				sp.f, sp.rf, sp.off, sp.n = f, &runFile{path: f.Name()}, 0, 0
				sp.rf.refs.Store(1)
				// The old handle is done: surviving runs are reopened by
				// path (merge cursors), so only the writer held it. Close
				// errors are unactionable here.
				old.Close()
				if rerr := oldRF.release(s.fs, &s.bytesReclaimed); rerr != nil {
					return fmt.Errorf("shuffle: removing rotated seal spool %s: %w", oldRF.path, rerr)
				}
			}
		}
		return nil
	}
	f, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spool-*.run")
	if err != nil {
		return fmt.Errorf("shuffle: creating seal spool: %w", err)
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
		return dr, fmt.Errorf("shuffle: spilling to seal spool %s: %w", sp.f.Name(), err)
	}
	if err := w.Flush(); err != nil {
		sp.broken = true
		return dr, fmt.Errorf("shuffle: flushing seal spool %s: %w", sp.f.Name(), err)
	}
	dr = diskRun[K]{
		file: sp.rf, off: sp.off, size: w.BytesWritten(), pairs: pairs,
		index: typedIndex(keys, w.Index()),
	}
	sp.off += w.BytesWritten()
	sp.rf.size.Store(sp.off)
	sp.n++
	// Reference the run immediately: an Abort may release it long before
	// the spool closes.
	sp.rf.refs.Add(1)
	return dr, nil
}

// close releases the writer's hold on the spool file (removing it when
// no recorded run survives, and crediting reclaimed when non-nil) and
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
		return fmt.Errorf("shuffle: closing seal spool %s: %w", sp.rf.path, closeErr)
	}
	if releaseErr != nil {
		return fmt.Errorf("shuffle: removing seal spool %s: %w", sp.rf.path, releaseErr)
	}
	return nil
}

// Finish ends the round once every task has committed: it compacts the
// partitions whose disk runs outgrew the merge's bounds, a pass at a
// time until they fit (compactDiskRuns), and closes each
// partition's seal spool — tune.compactors partitions at a time,
// one at a time and in partition order when it is negative — and
// returns the ingestion's first error. The shuffle is then ready for
// Stats and reads.
func (in *Ingester[K, V]) Finish() error {
	start := time.Now()
	s := in.s
	workers := min(max(s.tune.compactors, 1), s.nparts)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1) - 1); p < s.nparts; p = int(next.Add(1) - 1) {
				if err := s.parts[p].finish(s, in.Err() == nil); err != nil {
					in.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	in.finishNs.Add(time.Since(start).Nanoseconds())
	return in.Err()
}

// finish, with compact, compacts the partition's disk runs while they
// outgrow a merge bound, and then closes its seal spool. Each pass
// merges every chunk of two or more runs, so the run count falls until
// the bounds hold.
func (st *partitionState[K, V]) finish(s *Shuffle[K, V], compact bool) (err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if compact && needsCompaction(st.disk) {
		s.diskSem <- struct{}{}
		for err == nil && needsCompaction(st.disk) {
			err = st.compactDiskRuns(s)
		}
		<-s.diskSem
	}
	if st.pspool != nil {
		if cerr := st.pspool.close(&s.bytesReclaimed); err == nil {
			err = cerr
		}
		st.pspool = nil
	}
	return err
}
