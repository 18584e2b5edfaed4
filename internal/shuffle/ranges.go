// Key-range splitting of the reduce merge: one partition's sorted key
// space is cut into balanced, class-aligned ranges so disjoint slices
// of the same partition can be merged and reduced concurrently.
//
// The plan comes entirely from the resident run indexes (a counting
// merge — no disk read): PlanReduceRanges walks the partition's groups
// in canonical order, accumulating pair counts, and closes a range
// whenever the accumulated load passes the target *and* the next group
// starts a new order-equivalence class. Boundaries land only at class
// starts, so a key — including distinct keys the fallback comparator
// cannot separate — never straddles two ranges, and the one-reducer-
// per-group contract survives the split.
//
// RangeReader is the read surface, concurrent or not: it opens the
// partition's spool files and mmaps once (openRunViews), and each
// ForEachGroupRange call builds its own clamped cursor set over
// subslices of the resident indexes, seeked by binary search
// (rangeCursors) — the whole-partition read is simply the unbounded
// range. Ranges emitted in plan order
// concatenate to exactly the whole-partition merge's group sequence,
// value-order contract included, which is the determinism argument: the
// split changes who reads a group, never what the group is or where it
// appears.
package shuffle

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// KeyRange is one planned slice of a partition's sorted key space:
// [Lo, Hi) in canonical key order, where an unset bound (HasLo/HasHi
// false) extends to the partition's edge. Bounds always sit on
// order-equivalence-class starts: every key order-equal to Lo is
// inside, every key order-equal to Hi is in the next range.
type KeyRange[K comparable] struct {
	Lo    K
	HasLo bool
	Hi    K
	HasHi bool
	// Pairs and Keys are the range's planned load from the resident
	// indexes — the weights range units are scheduled by.
	Pairs int64
	Keys  int64
}

// Contains reports whether k falls in the range under the canonical
// order (the comparator behind SortKeys). Keys order-equal to Lo are
// inside; keys order-equal to Hi are not.
func (r KeyRange[K]) Contains(k K) bool {
	cmp := orderOf[K]().cmp
	return !(r.HasLo && cmp(k, r.Lo) < 0) && !(r.HasHi && cmp(k, r.Hi) >= 0)
}

// rangePlanner cuts a canonically ordered (key, count) stream into
// class-aligned ranges of roughly target pairs each, at most max of
// them; the final range absorbs whatever remains.
type rangePlanner[K comparable] struct {
	cmp     func(a, b K) int
	target  int64
	max     int
	ranges  []KeyRange[K]
	cur     KeyRange[K]
	prev    K
	started bool
}

// add feeds the next group. The current range closes at k only when it
// has reached the target and k starts a new order-equivalence class —
// strictly greater than the previous group — so groups the comparator
// cannot separate stay together.
func (pl *rangePlanner[K]) add(k K, count int64) {
	if pl.started && pl.cur.Pairs >= pl.target && len(pl.ranges) < pl.max-1 && pl.cmp(pl.prev, k) < 0 {
		pl.cur.Hi, pl.cur.HasHi = k, true
		pl.ranges = append(pl.ranges, pl.cur)
		pl.cur = KeyRange[K]{Lo: k, HasLo: true}
	}
	pl.cur.Pairs += count
	pl.cur.Keys++
	pl.prev, pl.started = k, true
}

// finish returns the planned ranges, or nil when no cut was made.
func (pl *rangePlanner[K]) finish() []KeyRange[K] {
	if len(pl.ranges) == 0 {
		return nil
	}
	return append(pl.ranges, pl.cur)
}

// PlanReduceRanges cuts the partition into class-aligned key ranges of
// roughly targetPairs pairs each, weighted by the resident indexes'
// per-group counts (a pure in-memory counting merge — no run file is
// opened). maxRanges caps the cut; the final range absorbs whatever
// remains. Returns nil — meaning "don't split" — when targetPairs or
// maxRanges disables splitting, when the partition is empty or fits a
// single range, or when the counting pass fails (the whole-partition
// merge will surface the error).
func (p Partition[K, V]) PlanReduceRanges(targetPairs int64, maxRanges int) []KeyRange[K] {
	if targetPairs <= 0 || maxRanges <= 1 {
		return nil
	}
	pl := rangePlanner[K]{cmp: orderOf[K]().cmp, target: targetPairs, max: maxRanges}
	err := p.forEachCount(func(k K, count int) error {
		pl.add(k, int64(count))
		return nil
	})
	if err != nil {
		return nil
	}
	return pl.finish()
}

// clampRange resolves a KeyRange to the [lo, hi) index window of a key
// sequence sorted in canonical order (run indexes and sorted key slices
// are written that way): each set bound seeks, by binary search, the
// first key not below it.
func clampRange[K comparable](n int, keyAt func(int) K, cmp func(a, b K) int, r KeyRange[K]) (lo, hi int) {
	lo, hi = 0, n
	if r.HasLo {
		lo = sort.Search(n, func(i int) bool { return cmp(keyAt(i), r.Lo) >= 0 })
	}
	if r.HasHi {
		hi = sort.Search(n, func(i int) bool { return cmp(keyAt(i), r.Hi) >= 0 })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// RangeReader reads key ranges of one partition — disjoint ones
// concurrently. It holds the partition's read surface open once — spool
// handles and shared mmaps (openRunViews), the disk-read semaphore slot,
// the reduce-merge span — while any number of goroutines each run
// ForEachGroupRange over their own range. Close releases all of it.
// The partition must be quiescent (reduce phase): no concurrent writes.
type RangeReader[K comparable, V any] struct {
	s   *Shuffle[K, V]
	st  *partitionState[K, V]
	ord keyOrder[K]

	views    []runView // one per disk run, sharing per-spool handles/mmaps
	closeAll func()    // non-nil when disk runs are held open

	mem []memRun[K, V] // sealed in-memory runs, then the live run

	closeOnce sync.Once
}

// OpenRangeReader opens the partition's shared read surface. With disk
// runs it takes a disk-read semaphore slot — at most
// diskReadConcurrency partitions hold their fan-in open at once — and
// opens every spool handle and mapping exactly once, held until Close;
// the reduce-merge span covers the same window.
func (p Partition[K, V]) OpenRangeReader() (*RangeReader[K, V], error) {
	st := &p.s.parts[p.idx]
	if p.s.closed && st.spilledToDisk {
		return nil, fmt.Errorf("shuffle: partition %d read after Close: spilled runs deleted", p.idx)
	}
	rr := &RangeReader[K, V]{s: p.s, st: st, ord: orderOf[K](), mem: st.memRuns()}
	if len(st.disk) > 0 {
		p.s.diskSem <- struct{}{}
		st.lane.Begin(obs.OpReduceMerge, int64(len(st.disk)), 0)
		views, closeAll, err := openRunViews(p.s, st.disk)
		if err != nil {
			closeAll()
			st.lane.End(obs.OpReduceMerge, 0, 1)
			<-p.s.diskSem
			return nil, err
		}
		rr.views, rr.closeAll = views, closeAll
	}
	return rr, nil
}

// Close releases the reader's handles, mappings, semaphore slot and
// span. Safe to call more than once; must not race ForEachGroupRange.
// It cannot fail: the handles were only read.
func (rr *RangeReader[K, V]) Close() error {
	rr.closeOnce.Do(func() {
		if rr.closeAll != nil {
			rr.closeAll()
			rr.st.lane.End(obs.OpReduceMerge, 0, 0)
			<-rr.s.diskSem
		}
	})
	return nil
}

// ForEachGroupRange streams the partition's groups inside r, in
// canonical key order, through fn — ForEachGroup clamped to r
// (reuseValues false) or ForEachGroupBatch (reuseValues true: the slice
// is scratch, valid only during the call). Every cursor is seeked to
// the range by binary search over its resident index and reads through
// the reader's shared views, so concurrent calls with disjoint ranges
// are safe and the concatenation of all planned ranges in order
// reproduces the whole-partition merge exactly.
func (rr *RangeReader[K, V]) ForEachGroupRange(r KeyRange[K], reuseValues bool, fn func(k K, vs []V) error) error {
	cursors := rangeCursors(rr.s, rr.st.disk, rr.views, rr.mem, rr.ord.cmp, r)
	return mergeCursors(cursors, rr.ord, readGroups(reuseValues, fn))
}
