// Disk-backed spill runs and the streaming k-way merge that reads them
// back.
//
// A sealed run is written once, in canonical sorted key order, as an
// internal/runfile run file (format v2: groups plus a footer index of
// key, count, offset, value-bytes per group). The shuffle keeps each
// run's index resident in typed form — the keys were in memory at seal
// time, so the index costs no decode — which splits the read path in
// two:
//
//   - Counting reads (Stats, NumKeys, SortedKeys, ForEachGroupCount,
//     the engine's overflow diagnosis) merge the in-memory indexes and
//     never open a run file at all: zero disk I/O.
//   - Value reads (ForEachGroup, Values) run the classic external-sort
//     merge — one cursor per run driven by a binary heap ordered by
//     (key, seal order) — but the indexes drive the key ordering, so
//     the files supply only value bytes.
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
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/runfile"
)

// errStopIteration is the internal sentinel for early exit from
// forEachGroup; it is never returned to callers.
var errStopIteration = errors.New("shuffle: stop iteration")

// maxDiskRunFanIn caps how many distinct run *files* one partition's
// merge opens at once. A seal or adoption that would grow a partition
// past the cap first compacts its existing disk runs into a single run
// — the classic multi-pass external merge — so open file descriptors
// stay bounded no matter how far a dataset outgrows the budget, at the
// cost of logarithmically rewriting spilled bytes. Runs sharing a
// spool file (the streaming path's fenced runs) count once: the merge
// reads them through sections of a single handle, so dozens of small
// fenced runs do not trigger the compaction avalanche their count
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
// and deleted when the last of them is released. A sealed live run
// owns its whole file (refs = 1); the streaming path's fence spools
// write several runs — one per staged task — into a single file, so a
// pressure event costs one create/close/open no matter how many tasks
// it fences, while each task's run stays independently releasable
// (abort of one task must not delete another's fenced data).
type runFile struct {
	path string
	refs atomic.Int32
	size atomic.Int64 // bytes written into the file
	dead atomic.Int64 // bytes of sections already released (rotation trigger)
}

// release drops one reference, removing the file when none remain.
// When the remove succeeds mid-round, the file's bytes are credited to
// reclaimed (nil to skip the credit, e.g. at Close, where deleting
// spill files is the round ending rather than space coming back to a
// still-running round).
func (rf *runFile) release(fs runfile.FS, reclaimed *atomic.Int64) error {
	if rf.refs.Add(-1) == 0 {
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

// countingReader meters every byte read from a run file into the
// shuffle's DiskBytesRead counter.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// countingReaderAt is countingReader for the positioned-read fallback:
// cursors share one handle with no seek state, so every section read
// is a pread, metered the same way.
type countingReaderAt struct {
	ra io.ReaderAt
	n  *atomic.Int64
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ra.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// writeRun encodes one sorted run (keys in sorted order, groups from
// the map) to a new run file under the spill dir and returns the run
// with its typed resident index, plus the body and index byte counts.
// Shared by live-run seals (spillToDisk) and the streaming path's
// fenced staged spills (ingest.go).
func writeRun[K comparable, V any](s *Shuffle[K, V], keys []K, groups map[K][]V, pairs int64) (dr diskRun[K], body, idx int64, retErr error) {
	f, err := s.fs.CreateTemp(s.opts.SpillDir, "mr-spill-*.run")
	if err != nil {
		return dr, 0, 0, fmt.Errorf("shuffle: creating spill file: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
			s.fs.Remove(f.Name())
		}
	}()
	w := runfile.NewWriter(f)
	if err := writeGroups(w, f.Name(), keys, groups); err != nil {
		return dr, 0, 0, err
	}
	if err := w.Finish(); err != nil {
		return dr, 0, 0, fmt.Errorf("shuffle: flushing spill %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return dr, 0, 0, fmt.Errorf("shuffle: closing spill %s: %w", f.Name(), err)
	}
	ok = true
	rf := &runFile{path: f.Name()}
	rf.refs.Store(1)
	rf.size.Store(w.BytesWritten())
	dr = diskRun[K]{file: rf, off: 0, size: w.BytesWritten(), pairs: pairs, index: typedIndex(keys, w.Index(), w.BodyBytes())}
	return dr, w.BodyBytes(), w.BytesWritten() - w.BodyBytes(), nil
}

// writeGroups encodes one sorted run onto an already-open writer
// (shared by writeRun and the fence spool, which appends several
// complete runs to one file).
func writeGroups[K comparable, V any](w *runfile.Writer, name string, keys []K, groups map[K][]V) error {
	var kbuf, vbuf []byte
	var err error
	for _, k := range keys {
		kbuf, err = runfile.Append(kbuf[:0], k)
		if err != nil {
			return fmt.Errorf("shuffle: spilling key: %w", err)
		}
		vs := groups[k]
		if err := w.BeginGroup(kbuf, len(vs)); err != nil {
			return fmt.Errorf("shuffle: spilling to %s: %w", name, err)
		}
		for _, v := range vs {
			vbuf, err = runfile.Append(vbuf[:0], v)
			if err != nil {
				return fmt.Errorf("shuffle: spilling value: %w", err)
			}
			if err := w.AppendValue(vbuf); err != nil {
				return fmt.Errorf("shuffle: spilling to %s: %w", name, err)
			}
		}
	}
	return nil
}

// spillToDisk encodes the live run (already combined when the shuffle
// has a combiner) to a new run file in sorted key order and retains its
// typed index. Called from the partition's owning merge goroutine, or
// under the partition lock on the streaming path.
func (st *partitionState[K, V]) spillToDisk(s *Shuffle[K, V]) error {
	dr, body, idx, err := writeRun(s, sortedMapKeys(st.live), st.live, int64(st.livePairs))
	if err != nil {
		return err
	}
	st.disk = append(st.disk, dr)
	st.spilledToDisk = true
	st.bytesSpilled += body
	st.indexBytes += idx
	if needsCompaction(st.disk) {
		s.diskSem <- struct{}{}
		defer func() { <-s.diskSem }()
		return st.compactDiskRuns(s, st.lane, false)
	}
	return nil
}

// typedIndex pairs the writer's footer entries (counts and value-byte
// lengths, complete after Finish) with the typed keys they were written
// from, in write order. Each group's value-section offset is derived
// from where the next group starts (bodyEnd for the last group): the
// section is the valBytes-long tail of the group's framing.
func typedIndex[K comparable](keys []K, entries []runfile.IndexEntry, bodyEnd int64) []keyCount[K] {
	index := make([]keyCount[K], len(keys))
	for i, k := range keys {
		end := bodyEnd
		if i+1 < len(entries) {
			end = entries[i+1].Offset
		}
		index[i] = keyCount[K]{
			key:      k,
			count:    entries[i].Count,
			valBytes: entries[i].ValueBytes,
			valOff:   end - entries[i].ValueBytes,
		}
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
// The caller holds st.mu (streaming path) or owns the partition
// outright (barrier path). With concurrent set — the async compaction
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
	defer func() { lane.End(obs.OpCompact, outPairs, errFlag(retErr)) }()
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
		index: typedIndex(keysWritten, w.Index(), w.BodyBytes()),
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
// The merge order comes entirely from the runs' resident indexes — no
// key is decoded from disk — and value sections are addressed through
// those indexes and loaded on demand (a mapped view or one pread each).
// Spillable key kinds all have a strict canonical order (New refuses
// the rest), and a run holds a key at most once, so the cursors sitting
// on the heap's minimum key are exactly that key's groups, in seal
// order: they fold into a single output group whose values concatenate
// in seal order, preserving the value-order contract. Without a
// combiner each section moves as one raw framed copy, never parsed,
// while with a combiner the folded values are decoded, re-combined, and
// re-encoded, shrinking the rewritten bytes toward the post-combine
// communication cost. Peak memory is one group; peak descriptors
// maxDiskRunFanIn plus the output file.
func mergeDiskRuns[K comparable, V any](s *Shuffle[K, V], compacting []diskRun[K]) (path string, w *runfile.Writer, keysWritten []K, retErr error) {
	cursors, closeAll, err := openDiskCursors[K, V](s, compacting)
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

	h := &cursorHeap[K, V]{cmp: orderOf[K]().cmp}
	if err := primeCursors(h, cursors); err != nil {
		return "", nil, nil, err
	}

	var kbuf, vbuf []byte
	var vals []V // combiner scratch, reused across groups
	writeGroup := func(k K, srcs []*groupCursor[K, V]) error {
		var err error
		kbuf, err = runfile.Append(kbuf[:0], k)
		if err != nil {
			return fmt.Errorf("shuffle: compacting key: %w", err)
		}
		if s.combiner == nil {
			total := 0
			for _, c := range srcs {
				total += c.count
			}
			if err := w.BeginGroup(kbuf, total); err != nil {
				return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
			}
			for _, c := range srcs {
				// One section load (mapped view or pread), one framed
				// append: the group's values move as raw bytes, never
				// parsed.
				if err := c.loadSection(c.valOff, c.valBytes, c.count); err != nil {
					return err
				}
				if err := w.AppendRawBytes(c.batch.Raw(), c.count); err != nil {
					return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
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
			if err := c.loadSection(c.valOff, c.valBytes, c.count); err != nil {
				return err
			}
			vals, err = runfile.DecodeBatch[V](&c.batch, vals)
			if err != nil {
				return fmt.Errorf("shuffle: compacting %s: %w", c.file.Name(), err)
			}
		}
		combined := s.combiner(k, vals)
		if len(combined) == 0 {
			return nil // combiner dropped the group entirely
		}
		if err := w.BeginGroup(kbuf, len(combined)); err != nil {
			return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
		}
		for _, v := range combined {
			vbuf, err = runfile.Append(vbuf[:0], v)
			if err != nil {
				return fmt.Errorf("shuffle: compacting value: %w", err)
			}
			if err := w.AppendValue(vbuf); err != nil {
				return fmt.Errorf("shuffle: compacting to %s: %w", out.Name(), err)
			}
		}
		keysWritten = append(keysWritten, k)
		return nil
	}
	var group []*groupCursor[K, V]
	for len(h.cs) > 0 {
		group = append(group[:0], h.pop())
		k := group[0].key
		for len(h.cs) > 0 && h.cs[0].key == k {
			group = append(group, h.pop())
		}
		if err := writeGroup(k, group); err != nil {
			return "", nil, nil, err
		}
		for _, c := range group {
			more, err := c.next()
			if err != nil {
				return "", nil, nil, err
			}
			if more {
				h.push(c)
			}
		}
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
			if !s.opts.DisableMmap {
				if m, err := runfile.Map(f, mapLen[dr.file]); err == nil {
					of.mapped = m
				}
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

// openDiskCursors opens one cursor per disk run, in seal order, each
// metered through the shuffle's DiskBytesRead counter. The cursor's
// key ordering comes from the run's resident index; the file supplies
// only value-section bytes, addressed directly through the index (see
// openRunViews for the mapped-view/pread split). The legacy perValue
// hook additionally keeps a sequential reader per run so the pre-batch
// decode loop stays measurable.
func openDiskCursors[K comparable, V any](s *Shuffle[K, V], runs []diskRun[K]) ([]*groupCursor[K, V], func(), error) {
	views, closeAll, err := openRunViews(s, runs)
	if err != nil {
		return nil, closeAll, err
	}
	cursors := make([]*groupCursor[K, V], 0, len(runs))
	for i, dr := range runs {
		c := &groupCursor[K, V]{
			runIdx: i, perValue: s.perValue, idx: dr.index,
			file: views[i].file, img: views[i].img, ra: views[i].ra, raOff: views[i].raOff,
			meter: &s.diskRead,
		}
		if s.perValue {
			var src io.Reader = views[i].file
			if dr.off != 0 {
				src = io.NewSectionReader(views[i].file, dr.off, dr.size)
			}
			c.rd = runfile.NewReader(countingReader{src, &s.diskRead})
		}
		cursors = append(cursors, c)
	}
	return cursors, closeAll, nil
}

// primeCursors advances every cursor to its first group and pushes the
// non-empty ones onto the heap.
func primeCursors[K comparable, V any](h *cursorHeap[K, V], cursors []*groupCursor[K, V]) error {
	for _, c := range cursors {
		ok, err := c.next()
		if err != nil {
			return err
		}
		if ok {
			h.push(c)
		}
	}
	return nil
}

// Close deletes the shuffle's spill files; call it once the reduce
// phase is done with the partitions. Afterwards ForEachGroup and Stats
// on a partition that had spilled return an error rather than the
// silently truncated live-only view (a Stats result memoized before
// Close stays servable — it needs no disk). Close must not run
// concurrently with reads.
func (s *Shuffle[K, V]) Close() error {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
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
// by its resident index — with the run file attached only when values
// are being read.
type groupCursor[K comparable, V any] struct {
	runIdx   int  // seal order; the live run is last
	perValue bool // legacy per-value decode (bench/test comparison hook)

	// in-memory source
	mem     map[K][]V
	memKeys []K

	// spilled source: the resident index drives keys, counts and value
	// section locations; the file (img view or ReaderAt, both nil on
	// the counting path) supplies only section bytes.
	idx   []keyCount[K]
	file  runfile.File
	img   []byte             // mapped view of this run's image (zero-copy path)
	ra    io.ReaderAt        // positioned-read fallback (shared handle)
	raOff int64              // run's offset within the file (ra path)
	meter *atomic.Int64      // DiskBytesRead, charged per section load
	rd    *runfile.Reader    // sequential reader (perValue hook only)
	kbuf  []byte             // reused key-framing scratch for rd
	vbuf  []byte             // reused value scratch for rd (per-value path)
	batch runfile.ValueBatch // reused value-section arena or view (batch path)
	vals  []V                // reused decoded-values scratch (reuse mode)

	pos int

	// current group
	key      K
	count    int
	valBytes int64 // value-section length (spilled source)
	valOff   int64 // value-section offset within the run (spilled source)
}

// next advances to the cursor's next group, returning false at the end
// of the run. Purely in-memory: spilled cursors step their index; the
// file is touched only when values() is called.
func (c *groupCursor[K, V]) next() (bool, error) {
	if c.mem != nil {
		if c.pos >= len(c.memKeys) {
			return false, nil
		}
		c.key = c.memKeys[c.pos]
		c.count = len(c.mem[c.key])
		c.pos++
	} else {
		if c.pos >= len(c.idx) {
			return false, nil
		}
		e := c.idx[c.pos]
		c.key, c.count, c.valBytes, c.valOff = e.key, int(e.count), e.valBytes, e.valOff
		c.pos++
	}
	return true, nil
}

// loadSection fills the cursor's batch with the value section at
// [valOff, valOff+valBytes) of the cursor's run: a zero-copy view when
// the run is mapped, one positioned read into the reused arena
// otherwise. The resident index supplies the location and the value
// count, so no framing is parsed from disk on either path; the
// section's own internal framing is still validated as the batch
// splits it (a length overrunning the section is ErrCorrupt).
func (c *groupCursor[K, V]) loadSection(valOff, valBytes int64, count int) error {
	if c.img != nil {
		if valOff < 0 || valBytes < 0 || valOff+valBytes > int64(len(c.img)) {
			return fmt.Errorf("shuffle: reading spill %s: %w: value section [%d,%d) outside run of %d bytes",
				c.file.Name(), runfile.ErrCorrupt, valOff, valOff+valBytes, len(c.img))
		}
		c.meter.Add(valBytes)
		if err := c.batch.SetView(c.img[valOff:valOff+valBytes], count); err != nil {
			return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
		}
		return nil
	}
	if err := c.batch.ReadSectionAt(c.ra, c.raOff+valOff, valBytes, count); err != nil {
		return fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
	}
	return nil
}

// values decodes the current group's values. For a spilled run this is
// the only point the file is touched: the resident index locates the
// group's value section, loadSection brings it in (mapped view or one
// pread — no framing decoded, no intermediate copy), and the batch is
// decoded with a single type dispatch (runfile.DecodeBatch). With
// reuse set — the ForEachGroupBatch contract — the decoded slice is
// the cursor's scratch, overwritten by the next group; otherwise it is
// freshly owned. The perValue hook restores the pre-batch sequential
// decode loop so benchmarks can measure the paths head to head.
func (c *groupCursor[K, V]) values(reuse bool) ([]V, error) {
	if c.mem != nil {
		return c.mem[c.key], nil
	}
	if c.perValue {
		kb, n, err := c.rd.NextAppend(c.kbuf[:0])
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("file ended before indexed group")
			}
			return nil, fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
		}
		c.kbuf = kb
		if n != c.count {
			return nil, fmt.Errorf("shuffle: reading spill %s: group has %d values, index says %d",
				c.file.Name(), n, c.count)
		}
		vs := make([]V, c.count)
		for i := range vs {
			vb, err := c.rd.ValueAppend(c.vbuf[:0])
			if err != nil {
				return nil, fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
			}
			c.vbuf = vb
			vs[i], err = runfile.Decode[V](vb)
			if err != nil {
				return nil, fmt.Errorf("shuffle: decoding spill value in %s: %w", c.file.Name(), err)
			}
		}
		return vs, nil
	}
	if err := c.loadSection(c.valOff, c.valBytes, c.count); err != nil {
		return nil, err
	}
	dst := c.vals[:0]
	if !reuse {
		dst = make([]V, 0, c.count)
	}
	vs, err := runfile.DecodeBatch[V](&c.batch, dst)
	if err != nil {
		return nil, fmt.Errorf("shuffle: decoding spill value in %s: %w", c.file.Name(), err)
	}
	if reuse {
		c.vals = vs
	}
	return vs, nil
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

// forEachGroup is the streaming core behind every read API: it yields
// the partition's groups in canonical sorted key order. When
// withValues is false the walk is a pure in-memory merge of the
// spilled runs' resident indexes with the live and sealed in-memory
// runs — no run file is opened, no byte of disk is read (counting
// mode, used by Stats, NumKeys, SortedKeys and ForEachGroupCount); fn
// then receives a nil slice and the group's size in count. With
// reuseValues set (ForEachGroupBatch) each disk cursor decodes into a
// scratch slice that its next group overwrites, so fn must not retain
// the slice (mergeGroupCursors drops the mode for the unplannable key
// kinds, whose tie classes can drain several groups of one cursor before
// fn runs).
func (p Partition[K, V]) forEachGroup(withValues, reuseValues bool, fn func(k K, count int, vs []V) error) (retErr error) {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}

	// Fast path: a single live run needs no merge.
	if len(st.runs) == 0 && len(st.disk) == 0 {
		for _, k := range sortedMapKeys(st.live) {
			vs := st.live[k]
			arg := vs
			if !withValues {
				arg = nil
			}
			if err := fn(k, len(vs), arg); err != nil {
				return stopOK(err)
			}
		}
		return nil
	}

	var cursors []*groupCursor[K, V]
	if withValues && len(st.disk) > 0 {
		// Bound concurrent open run files across all value readers
		// (reduce workers): at most diskReadConcurrency partitions hold
		// their fan-in open at once.
		p.s.diskSem <- struct{}{}
		defer func() { <-p.s.diskSem }()
		// The reduce-merge span covers the window the partition's run
		// files are held open — counting mode never opens files and is
		// not recorded.
		st.lane.Begin(obs.OpReduceMerge, int64(len(st.disk)), 0)
		defer func() { st.lane.End(obs.OpReduceMerge, 0, errFlag(retErr)) }()
		var closeAll func()
		var err error
		cursors, closeAll, err = openDiskCursors[K, V](p.s, st.disk)
		defer closeAll()
		if err != nil {
			return err
		}
	} else {
		// Counting mode walks the resident indexes: memory-only.
		for _, dr := range st.disk {
			cursors = append(cursors, &groupCursor[K, V]{
				runIdx: len(cursors), idx: dr.index,
			})
		}
	}
	for _, run := range st.runs {
		cursors = append(cursors, &groupCursor[K, V]{
			runIdx: len(cursors), mem: run, memKeys: sortedMapKeys(run),
		})
	}
	if len(st.live) > 0 {
		cursors = append(cursors, &groupCursor[K, V]{
			runIdx: len(cursors), mem: st.live, memKeys: sortedMapKeys(st.live),
		})
	}

	return mergeGroupCursors(cursors, orderOf[K](), withValues, reuseValues, fn)
}

// mergeGroupCursors runs the k-way heap merge over an already-built
// cursor set, yielding groups in canonical key order — the shared core
// of forEachGroup and the clamped range merges (RangeReader). Cursors
// must be ordered by runIdx ascending (seal order, live run last) so
// the value-order contract holds.
func mergeGroupCursors[K comparable, V any](cursors []*groupCursor[K, V], ord keyOrder[K], withValues, reuseValues bool, fn func(k K, count int, vs []V) error) error {
	reuseValues = reuseValues && ord.strict
	h := &cursorHeap[K, V]{cmp: ord.cmp}
	if err := primeCursors(h, cursors); err != nil {
		return err
	}

	// Pop whole order-equivalence classes of the minimum key. Under a
	// strict order (every planned key kind) a class is one key; under the
	// formatted fallback distinct keys can tie (and each run may hold
	// several of them in arbitrary relative order), so the class is
	// drained entirely and regrouped by actual key before emitting — one
	// group per key, always.
	type entry struct {
		key   K
		count int
		vs    []V
	}
	var entries []entry
	var pivot K
	inClass := func(c *groupCursor[K, V]) bool { return ord.cmp(c.key, pivot) == 0 }
	drain := func(c *groupCursor[K, V]) error {
		// Record the cursor's groups through the end of the class;
		// cursors are drained in seal order (the heap tie-breaks equal
		// keys by runIdx), preserving the value-order contract.
		for {
			e := entry{key: c.key, count: c.count}
			if withValues {
				vs, err := c.values(reuseValues)
				if err != nil {
					return err
				}
				e.vs = vs
			}
			entries = append(entries, e)
			ok, err := c.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if !inClass(c) {
				h.push(c)
				return nil
			}
		}
	}
	for len(h.cs) > 0 {
		top := h.pop()
		pivot = top.key
		entries = entries[:0]
		if err := drain(top); err != nil {
			return err
		}
		for len(h.cs) > 0 && inClass(h.cs[0]) {
			if err := drain(h.pop()); err != nil {
				return err
			}
		}
		for i := range entries {
			if entries[i].count < 0 {
				continue // folded into an earlier entry of the same key
			}
			k, count, vs := entries[i].key, entries[i].count, entries[i].vs
			copied := false
			for j := i + 1; j < len(entries); j++ {
				if entries[j].count >= 0 && entries[j].key == k {
					if withValues {
						if !copied {
							// Copy before extending: a single-run slice
							// may alias a live map's backing array.
							vs = append(make([]V, 0, count+entries[j].count), vs...)
							copied = true
						}
						vs = append(vs, entries[j].vs...)
					}
					count += entries[j].count
					entries[j].count = -1
				}
			}
			if err := fn(k, count, vs); err != nil {
				return stopOK(err)
			}
		}
	}
	return nil
}

// stopOK converts the early-exit sentinel into a clean return.
func stopOK(err error) error {
	if err == errStopIteration {
		return nil
	}
	return err
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
