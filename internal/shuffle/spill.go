// Disk-backed spill runs and the streaming k-way merge that reads them
// back.
//
// A sealed run is written once, in canonical sorted key order, as an
// internal/runfile run file of groups alone, footerless: the shuffle
// keeps each run's index (key, count, value-section offset and length
// per group) resident in typed form — the keys were in memory at seal
// time, so the index costs no decode (an adopted run's are decoded once,
// see adopt.go) — which splits the read path in two:
//
//   - Counting reads (Stats, ForEachGroupCount, PlanReduceRanges, the
//     engine's overflow diagnosis) merge the in-memory indexes and
//     never open a run file at all: zero disk I/O.
//   - Value reads (ForEachGroupBatch, the RangeReader) run the classic
//     external-sort merge — one cursor per run, a tree of losers on
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
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

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
// read buffer and a leaf of the merge even when its file handle is
// shared, so a streaming round whose pressure writes all land in one
// spool file must still compact once its run count (not file count)
// outgrows the merge. Twice the file fan-in: spool sections are cheaper
// than files but not free.
const maxDiskRunsPerPartition = 2 * maxDiskRunFanIn

// needsCompaction reports whether a partition's disk runs outgrew
// either bound: distinct files (file descriptors) or total runs (read
// buffers and merge width).
func needsCompaction[K comparable](disk []diskRun[K]) bool {
	return len(disk) >= maxDiskRunsPerPartition || len(disk) >= maxDiskRunFanIn && diskFanIn(disk) >= maxDiskRunFanIn
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

// GroupEncoder is the one typed group encoder: every key group the
// shuffle writes — a sealed run's (GroupEncoder.run, whatever spool or
// seal sink the writer sits on) or a compacted one — is framed here,
// through two scratch buffers reused across groups, and so is every
// run image internal/proc writes outside a shuffle (its input image
// and reduce outputs). It resolves K's and V's codecs on first use, so
// a value costs its encoding and nothing else. The zero value is ready
// to use.
type GroupEncoder[K comparable, V any] struct {
	kbuf, vbuf []byte
	kc         runfile.Codec[K]
	vc         runfile.Codec[V]
}

// begin encodes k and opens its group of n values on w.
func (e *GroupEncoder[K, V]) begin(w *runfile.Writer, k K, n int) error {
	if e.kc.Append == nil {
		e.kc, e.vc = runfile.CodecFor[K](), runfile.CodecFor[V]()
	}
	var err error
	if e.kbuf, err = e.kc.Append(e.kbuf[:0], k); err != nil {
		return fmt.Errorf("shuffle: encoding key: %w", err)
	}
	return w.BeginGroup(e.kbuf, n)
}

// Group writes k's whole group. Its values are framed into one buffer —
// each its length, then its encoding, as Writer.AppendValue frames one —
// and handed to the writer as one raw section. Groups must come in K's
// canonical order (SortKeys) for the image to be adoptable; an error
// that is not w's own (runfile.Writer.Err) is an encoding failure.
func (e *GroupEncoder[K, V]) Group(w *runfile.Writer, k K, vs []V) error {
	if err := e.begin(w, k, len(vs)); err != nil {
		return err
	}
	e.vbuf = e.vbuf[:0]
	for _, v := range vs {
		var err error
		if e.kbuf, err = e.vc.Append(e.kbuf[:0], v); err != nil {
			return fmt.Errorf("shuffle: encoding value: %w", err)
		}
		e.vbuf = append(binary.AppendUvarint(e.vbuf, uint64(len(e.kbuf))), e.kbuf...)
	}
	return w.AppendRawBytes(e.vbuf, len(vs))
}

// run writes a sorted run's groups, in its key order.
func (e *GroupEncoder[K, V]) run(w *runfile.Writer, r *memRun[K, V]) error {
	for g, k := range r.keys {
		if err := e.Group(w, k, r.group(g)); err != nil {
			return err
		}
	}
	return nil
}

// typedIndex pairs a run image's index entries (complete — a writer's
// after Finish or Flush, or loaded from the image) with the typed keys
// they stand for, in write order.
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
	st.bytesSpilled += w.BytesWritten()
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
	cmp := orderOf[K]()
	err = mergeCursors(rangeCursors(s, compacting, views, nil, cmp, KeyRange[K]{}), cmp, func(k K, srcs []groupRef[K, V]) error {
		if s.combiner == nil {
			total := 0
			for _, r := range srcs {
				total += r.count
			}
			if err := enc.begin(w, k, total); err != nil {
				return err
			}
			for i := range srcs {
				// One section load (mapped view or pread), one framing
				// check, one append: the group's values move as raw
				// bytes, never decoded.
				r := &srcs[i]
				sec, err := r.section()
				if err != nil {
					return err
				}
				if err := runfile.CheckSection(sec, r.count); err != nil {
					return fmt.Errorf("shuffle: reading spill %s: %w", r.c.file.Name(), err)
				}
				if err := w.AppendRawBytes(sec, r.count); err != nil {
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
		for i := range srcs {
			var err error
			if vals, err = srcs[i].appendValues(vals); err != nil {
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
	// The output, like a seal, ends at its last group: its index is
	// resident (typedIndex) and nothing reads a footer.
	if err := w.Flush(); err != nil {
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
			v.ra = of.f
			v.raOff = dr.off
		}
		views = append(views, v)
	}
	return views, closeAll, nil
}

// Close deletes the shuffle's spill files; call it once the reduce
// phase is done with the partitions. Afterwards value reads and Stats
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

// groupCursor walks one run's groups [pos, end) in canonical key order:
// an in-memory run's, or a spilled run's driven by its resident index —
// with the run's read surface attached only when values are being read.
// key is the current group's key; the merge snapshots the rest of the
// group (cursor.ref) when the cursor wins.
type groupCursor[K comparable, V any] struct {
	mem *memRun[K, V] // in-memory source

	// spilled source: the resident index drives keys, counts and value
	// section locations; the view (zero on the counting path) supplies
	// only section bytes.
	idx []keyCount[K]
	runView
	vc  runfile.Codec[V]
	buf []byte // reused section buffer of the pread path
	// read sums the section bytes this cursor loaded; the merge adds it
	// to meter (DiskBytesRead) once, when it ends.
	read  int64
	meter *atomic.Int64

	pos, end int
	key      K
}

// next advances to the cursor's next group, returning false at the end
// of the run. Purely in-memory: spilled cursors step their index; the
// file is touched only when values are asked for.
func (c *groupCursor[K, V]) next() bool {
	if c.pos >= c.end {
		return false
	}
	if c.mem != nil {
		c.key = c.mem.keys[c.pos]
	} else {
		c.key = c.idx[c.pos].key
	}
	c.pos++
	return true
}

// ref snapshots the cursor's current group.
func (c *groupCursor[K, V]) ref() groupRef[K, V] {
	if c.mem != nil {
		vs := c.mem.group(c.pos - 1)
		return groupRef[K, V]{c: c, count: len(vs), vals: vs}
	}
	e := &c.idx[c.pos-1]
	return groupRef[K, V]{c: c, count: int(e.count), off: e.valOff, n: e.valBytes}
}

// groupRef is one source's part of a merged group, snapshotted when its
// cursor won: the value count, and the value section's offset and
// length in the run or the in-memory values. The cursor has moved on
// by the time a consumer reads the ref; only its read surface (view,
// section buffer, read sum) is used.
type groupRef[K comparable, V any] struct {
	c      *groupCursor[K, V]
	count  int
	off, n int64 // value section within the run (spilled source)
	vals   []V   // in-memory source
}

// section returns the group's value section: a slice of the mapped
// run, or one positioned read into the cursor's reused buffer. The
// resident index supplies its location and value count, so no framing
// is parsed on the way; the consumer checks the section's own framing
// as it walks it (DecodeSection, CheckSection).
func (r *groupRef[K, V]) section() ([]byte, error) {
	c := r.c
	c.read += r.n
	if c.img != nil {
		if r.off < 0 || r.n < 0 || r.off+r.n > int64(len(c.img)) {
			return nil, fmt.Errorf("shuffle: reading spill %s: %w: value section [%d,%d) outside run of %d bytes",
				c.file.Name(), runfile.ErrCorrupt, r.off, r.off+r.n, len(c.img))
		}
		return c.img[r.off : r.off+r.n], nil
	}
	sec, err := runfile.ReadSectionAt(c.ra, c.raOff+r.off, r.n, c.buf)
	if err != nil {
		return nil, fmt.Errorf("shuffle: reading spill %s: %w", c.file.Name(), err)
	}
	c.buf = sec
	return sec, nil
}

// appendValues appends the group's values to dst. For a spilled run
// this is the only point the file is touched: the section is decoded
// in one walk (runfile.Codec.DecodeSection) straight onto dst — no
// per-cursor copy.
func (r *groupRef[K, V]) appendValues(dst []V) ([]V, error) {
	if r.c.mem != nil {
		return append(dst, r.vals...), nil
	}
	sec, err := r.section()
	if err != nil {
		return dst, err
	}
	if dst, err = r.c.vc.DecodeSection(sec, r.count, dst); err != nil {
		return dst, fmt.Errorf("shuffle: decoding spill values in %s: %w", r.c.file.Name(), err)
	}
	return dst, nil
}

// loserTree is the merge's tree of losers (Graefe, "Implementing
// Sorting in Database Systems", 2006): leaf i is cursor i, in seal
// order, and holds its current key's normalized words inline when K has
// that form; node 0 holds the winner and nodes 1..k-1 the loser of the
// match played there (leaf i sits at node k+i, a node's parent at half
// its number). Leaves order by (key, seal order) — words compared
// inline, any other key through cmp, K's canonical order (orderOf) —
// and an exhausted cursor loses to every live one, so equal keys win in
// seal order and the concatenated values respect the package's
// value-order contract. Replaying a leaf after its cursor advanced is
// one match per level: log₂ k compares.
type loserTree[K comparable, V any] struct {
	cs     []*groupCursor[K, V]
	leaves []mergeLeaf
	nodes  []int
	plan   *runfile.Plan // non-nil when K has a normalized form
	cmp    func(a, b K) int
}

// mergeLeaf is one cursor's current key as the tree compares it.
type mergeLeaf struct {
	w    [2]uint64 // normalized key words (plan set)
	done bool      // the cursor is exhausted
}

// newLoserTree steps every cursor to its first group and plays the
// initial matches bottom up. cs must be non-empty.
func newLoserTree[K comparable, V any](cs []*groupCursor[K, V], cmp func(a, b K) int) *loserTree[K, V] {
	k := len(cs)
	t := &loserTree[K, V]{cs: cs, leaves: make([]mergeLeaf, k), nodes: make([]int, k), cmp: cmp}
	if plan := runfile.PlanFor[K](); plan.Normalized() {
		t.plan = plan
	}
	win := make([]int, 2*k) // win[n] is the winner of node n's match
	for i := range cs {
		t.advance(i)
		win[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if t.less(b, a) {
			a, b = b, a
		}
		win[n], t.nodes[n] = a, b
	}
	t.nodes[0] = win[1] // with one leaf, node 1 is leaf 0
	return t
}

// advance steps cursor i to its next group and refreshes its leaf.
func (t *loserTree[K, V]) advance(i int) {
	c, l := t.cs[i], &t.leaves[i]
	switch l.done = !c.next(); {
	case l.done:
		l.w = [2]uint64{^uint64(0), ^uint64(0)}
	case t.plan != nil:
		l.w[0], l.w[1] = t.plan.Norm(unsafe.Pointer(&c.key))
	}
}

// less reports whether leaf a wins its match against leaf b. An
// exhausted leaf's words are all ones (advance), so under a normalized
// form words decide every match but a tie, where done is checked.
func (t *loserTree[K, V]) less(a, b int) bool {
	la, lb := &t.leaves[a], &t.leaves[b]
	if t.plan != nil {
		if la.w[0] != lb.w[0] {
			return la.w[0] < lb.w[0]
		}
		if la.w[1] != lb.w[1] {
			return la.w[1] < lb.w[1]
		}
	} else if !la.done && !lb.done {
		if c := t.cmp(t.cs[a].key, t.cs[b].key); c != 0 {
			return c < 0
		}
	}
	if la.done != lb.done {
		return lb.done
	}
	return a < b
}

// replay plays leaf i's matches from its parent to the root, after its
// cursor advanced, leaving the new winner in node 0.
func (t *loserTree[K, V]) replay(i int) {
	for n := (i + len(t.cs)) / 2; n > 0; n /= 2 {
		if t.less(t.nodes[n], i) {
			t.nodes[n], i = i, t.nodes[n]
		}
	}
	t.nodes[0] = i
}

// holds reports whether live leaf i is at key k (words w).
func (t *loserTree[K, V]) holds(i int, k K, w [2]uint64) bool {
	if t.plan != nil {
		return t.leaves[i].w == w
	}
	return t.cmp(t.cs[i].key, k) == 0
}

// memRuns returns the partition's in-memory runs in seal order: sealed
// runs, then the live run's chunks, the arena sorted into the last and
// dropped (reads come after ingestion; a later absorb regrows it).
func (st *partitionState[K, V]) memRuns() []*memRun[K, V] {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.chunk()
	st.live = nil
	return append(st.runs[:len(st.runs):len(st.runs)], st.chunks...)
}

// mergeRuns merges sorted runs into one, a key's values concatenated in
// run order.
func mergeRuns[K comparable, V any](runs []*memRun[K, V]) *memRun[K, V] {
	if len(runs) == 1 {
		return runs[0]
	}
	out := new(memRun[K, V])
	cmp := orderOf[K]()
	mergeCursors(rangeCursors(nil, nil, nil, runs, cmp, KeyRange[K]{}), cmp, func(k K, srcs []groupRef[K, V]) error {
		out.keys = append(out.keys, k)
		for _, r := range srcs {
			out.vals = append(out.vals, r.vals...)
		}
		out.ends = append(out.ends, len(out.vals))
		return nil
	})
	return out
}

// rangeCursors is the one place runs become merge cursors: one cursor
// per disk run, then one per in-memory run — seal order, the live run
// last, which is what the value-order contract needs — each clamped to
// r by binary search over its sorted keys (the unbounded KeyRange is
// the whole run). views are the disk runs' opened read surfaces
// (openRunViews); nil views build index-only cursors, the counting
// pass, for which no file is ever opened.
func rangeCursors[K comparable, V any](s *Shuffle[K, V], disk []diskRun[K], views []runView, mem []*memRun[K, V], cmp func(a, b K) int, r KeyRange[K]) []*groupCursor[K, V] {
	cursors := make([]*groupCursor[K, V], 0, len(disk)+len(mem))
	for i, dr := range disk {
		idx := dr.index
		lo, hi := clampRange(len(idx), func(j int) K { return idx[j].key }, cmp, r)
		if lo == hi {
			continue
		}
		c := &groupCursor[K, V]{idx: idx, pos: lo, end: hi, meter: &s.diskRead}
		if views != nil {
			c.runView, c.vc = views[i], s.vc
		}
		cursors = append(cursors, c)
	}
	for _, run := range mem {
		lo, hi := clampRange(len(run.keys), func(j int) K { return run.keys[j] }, cmp, r)
		if lo == hi {
			continue
		}
		cursors = append(cursors, &groupCursor[K, V]{mem: run, pos: lo, end: hi})
	}
	return cursors
}

// mergeCursors is the package's one k-way merge: a tree of losers over
// the cursors (which must be in seal order) yields each key, in
// canonical order, together with its sources' groups in seal order. A
// source's group is snapshotted as it wins and its cursor advanced and
// replayed at once, so a group costs one leaf-to-root replay per
// source. What a group becomes is the consumer's business — countGroups
// sums counts, readGroups decodes and concatenates, compaction
// (mergeDiskRuns) copies raw sections or re-combines. The section bytes
// the consumers load are added to DiskBytesRead when the merge ends,
// however it ends.
func mergeCursors[K comparable, V any](cursors []*groupCursor[K, V], cmp func(a, b K) int, fn func(k K, srcs []groupRef[K, V]) error) error {
	defer func() {
		for _, c := range cursors {
			if c.read > 0 {
				c.meter.Add(c.read)
				c.read = 0
			}
		}
	}()
	if len(cursors) == 0 {
		return nil
	}
	t := newLoserTree(cursors, cmp)
	var srcs []groupRef[K, V]
	for w := t.nodes[0]; !t.leaves[w].done; {
		k, kw := cursors[w].key, t.leaves[w].w
		srcs = srcs[:0]
		for {
			srcs = append(srcs, cursors[w].ref())
			t.advance(w)
			t.replay(w)
			if w = t.nodes[0]; t.leaves[w].done || !t.holds(w, k, kw) {
				break
			}
		}
		if err := fn(k, srcs); err != nil {
			return err
		}
	}
	return nil
}

// countGroups is the merge's counting consumer: a group's size is the
// sum of its sources' index counts — no value is read.
func countGroups[K comparable, V any](fn func(k K, count int) error) func(K, []groupRef[K, V]) error {
	return func(k K, srcs []groupRef[K, V]) error {
		n := 0
		for _, r := range srcs {
			n += r.count
		}
		return fn(k, n)
	}
}

// readGroups is the merge's reduce consumer: fn receives each key's
// values concatenated across its source runs in seal order, copied or
// decoded source by source into one slice — freshly allocated, or with
// reuse set (the ForEachGroupBatch contract) a scratch slice that every
// later group of this merge overwrites. A group held in memory is copied
// too: fn may change its slice, and a retried reduce must find the
// values the shuffle holds, not the ones a failed attempt left.
func readGroups[K comparable, V any](reuse bool, fn func(k K, vs []V) error) func(K, []groupRef[K, V]) error {
	var scratch []V
	return func(k K, srcs []groupRef[K, V]) error {
		vs := scratch[:0]
		if !reuse {
			total := 0
			for _, r := range srcs {
				total += r.count
			}
			vs = make([]V, 0, total)
		}
		for i := range srcs {
			var err error
			if vs, err = srcs[i].appendValues(vs); err != nil {
				return err
			}
		}
		if reuse {
			scratch = vs
		}
		return fn(k, vs)
	}
}

// ForEachGroupCount is ForEachGroupBatch's counting mode: it streams every
// group's key and size in sorted key order by merging the spilled runs'
// resident indexes with the in-memory runs — no run file is opened, no
// byte of disk is read. It is the counting core behind Stats, range
// planning and the engine's overflow diagnosis.
func (p Partition[K, V]) ForEachGroupCount(fn func(k K, count int) error) error {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}
	cmp := orderOf[K]()
	return mergeCursors(rangeCursors(p.s, st.disk, nil, st.memRuns(), cmp, KeyRange[K]{}), cmp, countGroups[K, V](fn))
}
