// Disk-backed spill runs and the streaming k-way merge that reads them
// back.
//
// A sealed run is written once, in canonical sorted key order, as an
// internal/runfile run file (groups plus a footer index of key, count,
// offset, value-bytes per group). The shuffle keeps each run's index
// resident in typed form — the keys were in memory at seal time, so the
// index costs no decode (an adopted run's are decoded once, see
// adopt.go) — which splits the read path in two:
//
//   - Counting reads (Stats, ForEachGroupCount, PlanReduceRanges, the
//     engine's overflow diagnosis) merge the in-memory indexes and
//     never open a run file at all: zero disk I/O.
//   - Value reads (ForEachGroup, the RangeReader) run the classic
//     external-sort merge — one cursor per run driven by a heap on
//     (key, seal order) — but the indexes drive the key ordering, so
//     the files supply only value bytes.
//
// Both are the same loop (mergeCursors) over the same cursors
// (rangeCursors) with a different consumer, and compaction is a third
// consumer of it: there is one k-way merge in this package.
//
// Because every run is internally sorted, one pass produces the
// partition's groups in global sorted order with the package's
// value-order contract intact — values of a key concatenate across
// runs in seal order, live run last — while holding only one group per
// run in memory. All run-file reads are metered into the shuffle's
// DiskBytesRead counter, which is how tests assert the counting path
// stayed memory-only.
package shuffle

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// maxDiskRunFanIn caps how many distinct run *files* one partition's
// merge opens at once. A seal or adoption that would grow a partition
// past the cap first compacts its existing disk runs into a single run
// — the classic multi-pass external merge — so open file descriptors
// stay bounded no matter how far a dataset outgrows the budget, at the
// cost of logarithmically rewriting spilled bytes. Runs sharing a
// spool file (a partition's sealed runs) count once: the merge
// reads them through sections of a single handle, so dozens of small
// sealed runs do not trigger the compaction avalanche their count
// alone would suggest.
const maxDiskRunFanIn = 64

// maxDiskRunsPerPartition caps the total run count of one partition's
// merge regardless of how the runs share files: every cursor costs a
// read buffer and a heap slot even when its file handle is shared, so
// a streaming round whose pressure writes all land in one spool file
// must still compact once its run count (not file count) outgrows the
// merge. Twice the file fan-in: spool sections are cheaper than files
// but not free.
const maxDiskRunsPerPartition = 2 * maxDiskRunFanIn

// needsCompaction reports whether a partition's disk runs outgrew
// either bound: distinct files (file descriptors) or total runs (read
// buffers and merge width).
func needsCompaction[K comparable](disk []diskRun[K]) bool {
	return len(disk) >= maxDiskRunsPerPartition || diskFanIn(disk) >= maxDiskRunFanIn
}

// diskFanIn is the number of distinct files behind a partition's disk
// runs — the quantity maxDiskRunFanIn bounds.
func diskFanIn[K comparable](disk []diskRun[K]) int {
	n := 0
	var last *runFile
	seen := make(map[*runFile]struct{}, len(disk))
	for i := range disk {
		rf := disk[i].file
		if rf == last {
			continue // runs of one spool adopt adjacently; fast path
		}
		if _, ok := seen[rf]; !ok {
			seen[rf] = struct{}{}
			n++
		}
		last = rf
	}
	return n
}

// diskReadConcurrency bounds how many partitions may hold their run
// files open at once — across reduce-time merges and merge-time
// compaction — keeping the file-descriptor high water near
// diskReadConcurrency * maxDiskRunFanIn regardless of partition count
// or worker count. (The counting pass no longer opens files at all.)
const diskReadConcurrency = 8

// keyCount is one group of a spilled run's resident index: the typed
// key, its value count, and the location of its value section in the
// run image (valOff is relative to the run's start, not the file's —
// runs embedded in a spool add their diskRun offset). Indexes are
// built at spill and compaction time from keys already in memory, so
// counting reads never decode from disk, and value reads address their
// sections directly — no framing is parsed on the read path at all.
type keyCount[K comparable] struct {
	key      K
	count    int64
	valBytes int64
	valOff   int64
}

// runFile is one spill temp file, shared by every diskRun it embeds
// and deleted when the last of them is released. A compacted run
// owns its whole file (refs = 1); a spool writes several sections —
// a partition's sealed runs, or its swapped staged tasks — into a
// single file, so a seal or a pressure event costs no create/close/open
// of its own, while each section stays independently releasable (abort
// of one task must not delete another's swapped data).
type runFile struct {
	path     string
	borrowed bool // adopted from its owner (AdoptRun): released like any other, never removed
	refs     atomic.Int32
	size     atomic.Int64 // bytes written into the file
	dead     atomic.Int64 // bytes of sections already released (rotation trigger)
}

// release drops one reference, removing the file when none remain.
// When the remove succeeds mid-round, the file's bytes are credited to
// reclaimed (nil to skip the credit, e.g. at Close, where deleting
// spill files is the round ending rather than space coming back to a
// still-running round).
func (rf *runFile) release(fs runfile.FS, reclaimed *atomic.Int64) error {
	if rf.refs.Add(-1) == 0 && !rf.borrowed {
		if err := fs.Remove(rf.path); err != nil {
			return err
		}
		if reclaimed != nil {
			reclaimed.Add(rf.size.Load())
		}
	}
	return nil
}

// diskRun is one sealed run — a complete, self-contained run-file
// image embedded in a (possibly shared) temp file at [off, off+size) —
// together with its resident index; pairs drives the tiered compaction
// policy (small fresh seals vs large compacted runs).
type diskRun[K comparable] struct {
	file  *runFile
	off   int64
	size  int64
	pairs int64
	index []keyCount[K]
}

// countingReaderAt meters the positioned-read fallback into the
// shuffle's DiskBytesRead counter: cursors share one handle with no
// seek state, so every section read is a pread.
type countingReaderAt struct {
	ra io.ReaderAt
	n  *atomic.Int64
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ra.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// GroupEncoder is the one typed group encoder: every key group the
// shuffle writes — a sealed run's (writeGroups, whatever spool or
// seal sink the writer sits on) or a compacted one — is framed here,
// through two scratch buffers reused across groups, and so is every
// run image internal/proc writes outside a shuffle (its input image
// and reduce outputs). The zero value is ready to use.
type GroupEncoder[K comparable, V any] struct{ kbuf, vbuf []byte }

// begin encodes k and opens its group of n values on w.
func (e *GroupEncoder[K, V]) begin(w *runfile.Writer, k K, n int) error {
	var err error
	if e.kbuf, err = runfile.Append(e.kbuf[:0], k); err != nil {
		return fmt.Errorf("shuffle: encoding key: %w", err)
	}
	return w.BeginGroup(e.kbuf, n)
}

// Group writes k's whole group, encoding each value. Groups must come
// in K's canonical order (SortKeys) for the image to be adoptable; an
// error that is not w's own (runfile.Writer.Err) is an encoding failure.
func (e *GroupEncoder[K, V]) Group(w *runfile.Writer, k K, vs []V) error {
	if err := e.begin(w, k, len(vs)); err != nil {
		return err
	}
	for _, v := range vs {
		var err error
		if e.vbuf, err = runfile.Append(e.vbuf[:0], v); err != nil {
			return fmt.Errorf("shuffle: encoding value: %w", err)
		}
		if err := w.AppendValue(e.vbuf); err != nil {
			return err
		}
	}
	return nil
}

// writeGroups encodes one sorted run — keys in canonical order, groups
// from the map — onto an already-open writer. An error that is not the
// writer's own (runfile.Writer.Err) is an encoding failure.
func writeGroups[K comparable, V any](w *runfile.Writer, keys []K, groups map[K][]V) error {
	var enc GroupEncoder[K, V]
	for _, k := range keys {
		if err := enc.Group(w, k, groups[k]); err != nil {
			return err
		}
	}
	return nil
}

// typedIndex pairs a run image's index entries (complete — a writer's
// after Finish, or loaded from the image) with the typed keys they
// stand for, in write order.
func typedIndex[K comparable](keys []K, entries []runfile.IndexEntry) []keyCount[K] {
	index := make([]keyCount[K], len(keys))
	for i, k := range keys {
		e := entries[i]
		index[i] = keyCount[K]{key: k, count: e.Count, valBytes: e.ValueBytes, valOff: e.ValueOffset()}
	}
	return index
}

// compactionSuffix picks which runs to compact when the fan-in cap is
// hit: the contiguous suffix of "small" runs (fresh budget-sized
// seals), leaving earlier already-compacted large runs untouched so
// each pair is rewritten once per tier rather than on every
// compaction. When the suffix holds fewer than two runs the list is
// all large runs — a higher-tier merge — and everything is compacted.
// Each tier is ~maxDiskRunFanIn/2 times larger than the last, so total
// rewrite amplification is logarithmic in the spilled volume.
func compactionSuffix[K comparable, V any](s *Shuffle[K, V], disk []diskRun[K]) int {
	large := int64(s.opts.MaxBufferedPairs) * (maxDiskRunFanIn / 2)
	from := 0
	for i := len(disk) - 1; i >= 0; i-- {
		if disk[i].pairs >= large {
			from = i + 1
			break
		}
	}
	if len(disk)-from < 2 {
		return 0
	}
	return from
}

// compactDiskRuns merges the suffix of disk runs chosen by
// compactionSuffix into one new run file and splices it into st.disk.
// The caller holds st.mu. With concurrent set — the async compaction
// workers — the merge I/O runs with st.mu released: the input runs are
// immutable once sealed and concurrent seals only append to st.disk,
// so the planned [from, from+n) window is still the same runs at
// install time, and the splice simply carries any newer seals along.
// The span is recorded on lane: the partition's own lane inline, a
// compactor lane when concurrent (spans of different partitions then
// interleave freely without breaking per-lane LIFO).
func (st *partitionState[K, V]) compactDiskRuns(s *Shuffle[K, V], lane *obs.Ring, concurrent bool) (retErr error) {
	from := compactionSuffix(s, st.disk)
	compacting := append([]diskRun[K](nil), st.disk[from:]...)
	nIn := len(compacting)
	lane.Begin(obs.OpCompact, int64(nIn), 0)
	var outPairs int64
	defer func() { lane.End(obs.OpCompact, outPairs, obs.ErrFlag(retErr)) }()
	var inPairs int64
	for _, dr := range compacting {
		inPairs += dr.pairs
	}

	if concurrent {
		st.mu.Unlock()
	}
	path, w, keysWritten, err := mergeDiskRuns(s, compacting)
	if concurrent {
		st.mu.Lock()
	}
	if err != nil {
		return err
	}

	for _, dr := range compacting {
		dr.file.dead.Add(dr.size)
		dr.file.release(s.fs, &s.bytesReclaimed)
	}
	outRef := &runFile{path: path}
	outRef.refs.Store(1)
	outRef.size.Store(w.BytesWritten())
	merged := diskRun[K]{
		file:  outRef,
		size:  w.BytesWritten(),
		pairs: w.Pairs(),
		index: typedIndex(keysWritten, w.Index()),
	}
	tail := append([]diskRun[K]{merged}, st.disk[from+nIn:]...)
	st.disk = append(st.disk[:from], tail...)
	st.bytesSpilled += w.BodyBytes()
	st.indexBytes += w.BytesWritten() - w.BodyBytes()
	// A combiner can shrink the partition's held pairs during the
	// rewrite; keep the partition totals equal to the sum of its group
	// counts.
	st.pairs -= inPairs - w.Pairs()
	outPairs = w.Pairs()
	return nil
}

// mergeDiskRuns merges the given sealed runs into one new run file,
// returning its path, the writer (whose index and counters describe
// the output), and the keys in write order. Pure I/O over immutable
// inputs — no partition state is read or written, which is what lets
// the async compactor run it without the partition lock.
//
// It is the merge loop's compaction consumer: mergeCursors delivers each
// key with the cursors that hold it, in seal order, and they fold into a
// single output group whose values concatenate in that order, preserving
// the value-order contract. The merge order comes entirely from the
// runs' resident indexes — no key is decoded from disk — and value
// sections are loaded on demand (a mapped view or one pread each).
// Without a combiner each section moves as one raw framed copy, never
// parsed, while with a combiner the folded values are decoded,
// re-combined, and re-encoded, shrinking the rewritten bytes toward the
// post-combine communication cost. Peak memory is one group; peak
// descriptors maxDiskRunFanIn plus the output file.
func mergeDiskRuns[K comparable, V any](s *Shuffle[K, V], compacting []diskRun[K]) (path string, w *runfile.Writer, keysWritten []K, retErr error) {
	views, closeAll, err := openRunViews(s, compacting)
	defer closeAll()
	if err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: compacting spill runs: %w", err)
	}

	out, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spill-*.run")
	if err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: creating compacted run: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			out.Close()
			s.fs.Remove(out.Name())
		}
	}()
	w = runfile.NewWriter(out)

	var enc GroupEncoder[K, V]
	var vals []V // combiner scratch, reused across groups
	ord := orderOf[K]()
	err = mergeCursors(rangeCursors(s, compacting, views, nil, ord.cmp, KeyRange[K]{}), ord, func(k K, srcs []*groupCursor[K, V]) error {
		if s.combiner == nil {
			total := 0
			for _, c := range srcs {
				total += c.count
			}
			if err := enc.begin(w, k, total); err != nil {
				return err
			}
			for _, c := range srcs {
				// One section load (mapped view or pread), one framed
				// append: the group's values move as raw bytes, never
				// parsed.
				if err := c.loadSection(); err != nil {
					return err
				}
				if err := w.AppendRawBytes(c.batch.Raw(), c.count); err != nil {
					return err
				}
			}
			keysWritten = append(keysWritten, k)
			return nil
		}
		// Combiner path: decode the folded group's values in seal order,
		// re-combine, re-encode. The scratch slice is reused across
		// groups; the combined values are encoded before the next group
		// touches it, so a combiner returning a sub-slice of its input is
		// safe.
		vals = vals[:0]
		for _, c := range srcs {
			var err error
			if vals, err = c.appendValues(vals); err != nil {
				return err
			}
		}
		combined := s.combiner(k, vals)
		if len(combined) == 0 {
			return nil // combiner dropped the group entirely
		}
		keysWritten = append(keysWritten, k)
		return enc.Group(w, k, combined)
	})
	if err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
	}
	if err := w.Finish(); err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: flushing compacted run: %w", err)
	}
	if err := out.Close(); err != nil {
		return "", nil, nil, fmt.Errorf("shuffle: closing compacted run: %w", err)
	}
	ok = true
	return out.Name(), w, keysWritten, nil
}

// runView is one disk run's opened read surface: a zero-copy mapped
// view of the run's image when the platform and FS support it, or the
// positioned-read fallback on the shared handle otherwise. Views of
// runs embedded in one spool file share a single handle and a single
// mapping, so several cursors — including clamped range cursors reading
// the same run concurrently — cost one descriptor and one mapping per
// file.
type runView struct {
	file  runfile.File
	img   []byte      // mapped view of the run image (zero-copy path)
	ra    io.ReaderAt // positioned-read fallback (when img is nil)
	raOff int64       // run's offset within the file (ra path)
}

// openRunViews opens one view per disk run, in seal order. Each spool
// file is opened once and mapped once (up to the end of its
// furthest-reaching run) when possible; any mapping failure — no
// platform support, an injected fault, address-space pressure —
// silently selects the pread fallback (no seek state, so sibling
// cursors never interfere). The returned closeAll is safe to call
// whether or not err is nil; it unmaps and closes every handle opened
// so far, once each.
func openRunViews[K comparable, V any](s *Shuffle[K, V], runs []diskRun[K]) ([]runView, func(), error) {
	type openFile struct {
		f      runfile.File
		mapped []byte
	}
	files := make(map[*runFile]*openFile)
	closeAll := func() {
		for _, of := range files {
			if of.mapped != nil {
				// Unmap errors are unactionable here: the views are dead
				// either way, and errfs releases the real mapping even
				// when injecting.
				runfile.Unmap(of.f, of.mapped)
			}
			of.f.Close()
		}
	}
	mapLen := make(map[*runFile]int64, len(runs))
	for _, dr := range runs {
		if end := dr.off + dr.size; end > mapLen[dr.file] {
			mapLen[dr.file] = end
		}
	}
	views := make([]runView, 0, len(runs))
	for _, dr := range runs {
		of, ok := files[dr.file]
		if !ok {
			f, err := s.fs.Open(dr.file.path)
			if err != nil {
				return views, closeAll, fmt.Errorf("shuffle: opening spill run: %w", err)
			}
			of = &openFile{f: f}
			if m, err := runfile.Map(f, mapLen[dr.file]); err == nil {
				of.mapped = m
			}
			files[dr.file] = of
		}
		v := runView{file: of.f}
		if of.mapped != nil {
			v.img = of.mapped[dr.off : dr.off+dr.size]
		} else {
			v.ra = countingReaderAt{of.f, &s.diskRead}
			v.raOff = dr.off
		}
		views = append(views, v)
	}
	return views, closeAll, nil
}

// Close deletes the shuffle's spill files; call it once the reduce
// phase is done with the partitions. Afterwards ForEachGroup and Stats
// on a partition that had spilled return an error rather than the
// silently truncated live-only view (a Stats result memoized before
// Close stays servable — it needs no disk). Close must not run
// concurrently with reads.
func (s *Shuffle[K, V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	// Quiesce the async compaction workers first: an in-flight merge
	// holds run files open and would install its output into the
	// partitions being torn down. Errors they hit surface through
	// Ingester.Finish; Close only waits.
	s.compactWG.Wait()
	if s.compactCh != nil {
		close(s.compactCh)
	}
	// Releases below pass a nil reclaimed counter: deleting spill files
	// because the round is over is teardown, not space coming back to a
	// running round.
	var first error
	for i := range s.parts {
		st := &s.parts[i]
		for _, dr := range st.disk {
			if err := dr.file.release(s.fs, nil); err != nil && first == nil {
				first = err
			}
		}
		st.disk = nil
		// Swapped sections of tasks that never committed (the round
		// failed mid-ingestion) still hold references to their stash
		// files; release them too, and the spools' write handles when a
		// failed round never reached Ingester.Finish.
		for _, sr := range st.staged {
			for _, sec := range sr.swapped {
				if err := sec.rf.release(s.fs, nil); err != nil && first == nil {
					first = err
				}
			}
		}
		st.staged = nil
		if st.pspool != nil {
			if err := st.pspool.close(nil); err != nil && first == nil {
				first = err
			}
			st.pspool = nil
		}
		if st.stash != nil {
			if err := st.stash.close(nil); err != nil && first == nil {
				first = err
			}
			st.stash = nil
		}
	}
	s.closed = true
	return first
}

// groupCursor walks one run's groups in canonical key order: an
// in-memory map run over its sorted key slice, or a spilled run driven
// by its resident index — with the run's read surface attached only
// when values are being read.
type groupCursor[K comparable, V any] struct {
	runIdx int // seal order; the live run is last

	// in-memory source
	mem     map[K][]V
	memKeys []K

	// spilled source: the resident index drives keys, counts and value
	// section locations; the view (zero on the counting path) supplies
	// only section bytes.
	idx []keyCount[K]
	runView
	meter *atomic.Int64      // DiskBytesRead, charged per mapped section load
	batch runfile.ValueBatch // reused value-section arena or view

	pos int

	// current group
	key      K
	count    int
	valBytes int64 // value-section length (spilled source)
	valOff   int64 // value-section offset within the run (spilled source)
}

// next advances to the cursor's next group, returning false at the end
// of the run. Purely in-memory: spilled cursors step their index; the
// file is touched only when values are asked for.
func (c *groupCursor[K, V]) next() bool {
	if c.mem != nil {
		if c.pos >= len(c.memKeys) {
			return false
		}
		c.key = c.memKeys[c.pos]
		c.count = len(c.mem[c.key])
	} else {
		if c.pos >= len(c.idx) {
			return false
		}
		e := c.idx[c.pos]
		c.key, c.count, c.valBytes, c.valOff = e.key, int(e.count), e.valBytes, e.valOff
	}
	c.pos++
	return true
}

// loadSection fills the cursor's batch with the current group's value
// section: a zero-copy view when the run is mapped, one positioned read
// into the reused arena otherwise. The resident index supplies the
// location and the value count, so no framing is parsed from disk on
// either path; the section's own internal framing is still validated as
// the batch splits it (a length overrunning the section is ErrCorrupt).
func (c *groupCursor[K, V]) loadSection() error {
	if c.img != nil {
		if c.valOff < 0 || c.valBytes < 0 || c.valOff+c.valBytes > int64(len(c.img)) {
			return fmt.Errorf("shuffle: reading spill %s: %w: value section [%d,%d) outside run of %d bytes",
				c.file.Name(), runfile.ErrCorrupt, c.valOff, c.valOff+c.valBytes, len(c.img))
		}
		c.meter.Add(c.valBytes)
		if err := c.batch.SetView(c.img[c.valOff:c.valOff+c.valBytes], c.count); err != nil {
			return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
		}
		return nil
	}
	if err := c.batch.ReadSectionAt(c.ra, c.raOff+c.valOff, c.valBytes, c.count); err != nil {
		return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
	}
	return nil
}

// appendValues appends the current group's values to dst. For a spilled
// run this is the only point the file is touched: loadSection brings the
// value section in and the batch is decoded with a single type dispatch
// (runfile.DecodeBatch) straight onto dst — no per-cursor copy.
func (c *groupCursor[K, V]) appendValues(dst []V) ([]V, error) {
	if c.mem != nil {
		return append(dst, c.mem[c.key]...), nil
	}
	if err := c.loadSection(); err != nil {
		return dst, err
	}
	dst, err := runfile.DecodeBatch[V](&c.batch, dst)
	if err != nil {
		return dst, fmt.Errorf("shuffle: decoding spill value in %s: %w", c.file.Name(), err)
	}
	return dst, nil
}

// cursorHeap is a binary min-heap of cursors ordered by (current key,
// seal order), so equal keys pop in seal order and the concatenated
// values respect the package's value-order contract. cmp is K's
// canonical order (orderOf).
type cursorHeap[K comparable, V any] struct {
	cs  []*groupCursor[K, V]
	cmp func(a, b K) int
}

func (h *cursorHeap[K, V]) before(a, b *groupCursor[K, V]) bool {
	if c := h.cmp(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.runIdx < b.runIdx
}

func (h *cursorHeap[K, V]) push(c *groupCursor[K, V]) {
	h.cs = append(h.cs, c)
	i := len(h.cs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.cs[i], h.cs[parent]) {
			break
		}
		h.cs[i], h.cs[parent] = h.cs[parent], h.cs[i]
		i = parent
	}
}

func (h *cursorHeap[K, V]) pop() *groupCursor[K, V] {
	top := h.cs[0]
	last := len(h.cs) - 1
	h.cs[0] = h.cs[last]
	h.cs = h.cs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h.cs) && h.before(h.cs[l], h.cs[min]) {
			min = l
		}
		if r < len(h.cs) && h.before(h.cs[r], h.cs[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.cs[i], h.cs[min] = h.cs[min], h.cs[i]
		i = min
	}
	return top
}

// memRun is one in-memory run with its keys sorted for the merge.
type memRun[K comparable, V any] struct {
	groups map[K][]V
	keys   []K
}

// memRuns returns the partition's in-memory runs in seal order — sealed
// runs, then the live run — each with its keys sorted.
func (st *partitionState[K, V]) memRuns() []memRun[K, V] {
	runs := make([]memRun[K, V], 0, len(st.runs)+1)
	for _, run := range st.runs {
		runs = append(runs, memRun[K, V]{run, sortedMapKeys(run)})
	}
	if len(st.live) > 0 {
		runs = append(runs, memRun[K, V]{st.live, sortedMapKeys(st.live)})
	}
	return runs
}

// rangeCursors is the one place runs become merge cursors: one cursor
// per disk run, then one per in-memory run — seal order, the live run
// last, which is what the value-order contract needs — each clamped to
// r by binary search over its sorted keys (the unbounded KeyRange is
// the whole run). views are the disk runs' opened read surfaces
// (openRunViews); nil views build index-only cursors, the counting
// pass, for which no file is ever opened.
func rangeCursors[K comparable, V any](s *Shuffle[K, V], disk []diskRun[K], views []runView, mem []memRun[K, V], cmp func(a, b K) int, r KeyRange[K]) []*groupCursor[K, V] {
	cursors := make([]*groupCursor[K, V], 0, len(disk)+len(mem))
	for i, dr := range disk {
		idx := dr.index
		lo, hi := clampRange(len(idx), func(j int) K { return idx[j].key }, cmp, r)
		if lo == hi {
			continue
		}
		c := &groupCursor[K, V]{runIdx: i, idx: idx[lo:hi], meter: &s.diskRead}
		if views != nil {
			c.runView = views[i]
		}
		cursors = append(cursors, c)
	}
	for i, run := range mem {
		lo, hi := clampRange(len(run.keys), func(j int) K { return run.keys[j] }, cmp, r)
		if lo == hi {
			continue
		}
		cursors = append(cursors, &groupCursor[K, V]{runIdx: len(disk) + i, mem: run.groups, memKeys: run.keys[lo:hi]})
	}
	return cursors
}

// mergeCursors is the package's one k-way merge: a heap over the
// cursors (which must be in runIdx order) yields each key, in canonical
// order, together with the cursors currently holding it, in seal order.
// What a group becomes is the consumer's business — countGroups sums
// index counts, readGroups decodes and concatenates, compaction
// (mergeDiskRuns) copies raw sections or re-combines. A consumer reads
// its cursors' current group only; the loop advances them.
func mergeCursors[K comparable, V any](cursors []*groupCursor[K, V], ord keyOrder[K], fn func(k K, srcs []*groupCursor[K, V]) error) error {
	if !ord.strict {
		fn = regroupTies(ord.cmp, fn)
	}
	h := &cursorHeap[K, V]{cmp: ord.cmp}
	for _, c := range cursors {
		if c.next() {
			h.push(c)
		}
	}
	var srcs []*groupCursor[K, V]
	for len(h.cs) > 0 {
		srcs = append(srcs[:0], h.pop())
		k := srcs[0].key
		for len(h.cs) > 0 && ord.cmp(h.cs[0].key, k) == 0 {
			srcs = append(srcs, h.pop())
		}
		if err := fn(k, srcs); err != nil {
			return err
		}
		for _, c := range srcs {
			if c.next() {
				h.push(c)
			}
		}
	}
	return nil
}

// regroupTies adapts a consumer to a non-strict order — the formatted
// fallback of the unplannable key kinds, which only in-memory runs can
// hold (New refuses to spill them). Under it the merge loop's "key" is a
// whole order-equivalence class: distinct keys tie, and one run may hold
// several of them in any relative order. The adapter walks every cursor
// through the end of the class, in seal order, snapshotting each group
// it passes, and hands fn one call per distinct key (by ==, first seen
// first) with that key's snapshots still in seal order — one group per
// key, always. It leaves each cursor on its last group of the class for
// the loop to advance.
func regroupTies[K comparable, V any](cmp func(a, b K) int, fn func(K, []*groupCursor[K, V]) error) func(K, []*groupCursor[K, V]) error {
	return func(pivot K, srcs []*groupCursor[K, V]) error {
		var class []*groupCursor[K, V]
		for _, c := range srcs {
			for {
				snap := *c
				class = append(class, &snap)
				if c.pos >= len(c.memKeys) || cmp(c.memKeys[c.pos], pivot) != 0 {
					break
				}
				c.next()
			}
		}
		for i, g := range class {
			if g == nil {
				continue // folded into an earlier group of the same key
			}
			group := []*groupCursor[K, V]{g}
			for j := i + 1; j < len(class); j++ {
				if class[j] != nil && class[j].key == g.key {
					group, class[j] = append(group, class[j]), nil
				}
			}
			if err := fn(g.key, group); err != nil {
				return err
			}
		}
		return nil
	}
}

// countGroups is the merge's counting consumer: a group's size is the
// sum of its sources' index counts — no value is read.
func countGroups[K comparable, V any](fn func(k K, count int) error) func(K, []*groupCursor[K, V]) error {
	return func(k K, srcs []*groupCursor[K, V]) error {
		n := 0
		for _, c := range srcs {
			n += c.count
		}
		return fn(k, n)
	}
}

// readGroups is the merge's reduce consumer: fn receives each key's
// values concatenated across its source runs in seal order. A group held
// by a single in-memory run is passed as is (it aliases the run); any
// other is decoded source by source into one slice — freshly allocated,
// or with reuse set (the ForEachGroupBatch contract) a scratch slice
// that every later group of this merge overwrites.
func readGroups[K comparable, V any](reuse bool, fn func(k K, vs []V) error) func(K, []*groupCursor[K, V]) error {
	var scratch []V
	return func(k K, srcs []*groupCursor[K, V]) error {
		if len(srcs) == 1 && srcs[0].mem != nil {
			return fn(k, srcs[0].mem[k])
		}
		vs := scratch[:0]
		if !reuse {
			total := 0
			for _, c := range srcs {
				total += c.count
			}
			vs = make([]V, 0, total)
		}
		for _, c := range srcs {
			var err error
			if vs, err = c.appendValues(vs); err != nil {
				return err
			}
		}
		if reuse {
			scratch = vs
		}
		return fn(k, vs)
	}
}

// forEachCount is the counting core behind Stats, ForEachGroupCount
// and range planning: the merge over index-only
// cursors and the in-memory runs. No run file is opened, no byte of
// disk is read.
func (p Partition[K, V]) forEachCount(fn func(k K, count int) error) error {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}
	ord := orderOf[K]()
	return mergeCursors(rangeCursors(p.s, st.disk, nil, st.memRuns(), ord.cmp, KeyRange[K]{}), ord, countGroups[K, V](fn))
}

// forEachValues is the value-reading core behind ForEachGroup and
// ForEachGroupBatch: the unbounded range of a RangeReader held open
// for the one call.
func (p Partition[K, V]) forEachValues(reuse bool, fn func(k K, vs []V) error) error {
	rr, err := p.OpenRangeReader()
	if err != nil {
		return err
	}
	defer rr.Close()
	return rr.ForEachGroupRange(KeyRange[K]{}, reuse, fn)
}

// sortedMapKeys returns m's keys in canonical SortKeys order.
func sortedMapKeys[K comparable, V any](m map[K][]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	SortKeys(keys)
	return keys
}
