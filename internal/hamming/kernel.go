package hamming

import (
	"math/bits"
	"slices"
)

// segmentPairs is the distance-1 kernel of RunSplitting and RunWeight: it
// calls emit(Pair{x, x | 1<<j}) for every x and x | 1<<j in xs with j a
// bit of free and clear in x. The order is that of the all-pairs scan
// over sorted values it replaces — x ascending, then y ascending — and
// duplicates pair as there: each copy of x with each copy of y. Probing
// the free bits of each x, a full Splitting group (q = 2^w) costs
// Θ(q·log₂q), not the scan's Θ(q²). It may reorder xs.
//
// When free is one contiguous segment of w bits, 2^w ≤ 4·len(xs) and the
// group agrees outside it (as a Splitting group does), the dense path
// counts the segment's values in a table and walks it in ascending
// order, which is ascending x: no sort. Otherwise the sparse path sorts
// xs and binary-searches each probe.
func segmentPairs(xs []uint64, free uint64, emit func(Pair)) {
	if len(xs) < 2 {
		return
	}
	lo, w := bits.TrailingZeros64(free), bits.OnesCount64(free)
	if w < 32 && free>>lo == 1<<w-1 && 1<<w <= 4*len(xs) {
		var stack [1 << 8]uint32
		count := stack[:]
		if w > 8 {
			count = make([]uint32, 1<<w)
		}
		if densePairs(xs, lo, count[:1<<w], emit) {
			return
		}
	}
	sparsePairs(xs, free, emit)
}

// densePairs is segmentPairs' dense path over the segment of len(count)
// values starting at bit lo; count must be zero. It reports false, with
// nothing emitted, if xs does not agree outside the segment.
func densePairs(xs []uint64, lo int, count []uint32, emit func(Pair)) bool {
	mask := uint64(len(count) - 1)
	seg := mask << lo
	base := xs[0] &^ seg
	for _, x := range xs {
		if x&^seg != base {
			return false
		}
		count[x>>lo&mask]++
	}
	for v, cx := range count {
		x := base | uint64(v)<<lo
		for ; cx > 0; cx-- {
			for clr := mask &^ uint64(v); clr != 0; clr &= clr - 1 {
				bit := clr & -clr
				y := x | bit<<lo
				for cy := count[uint64(v)|bit]; cy > 0; cy-- {
					emit(Pair{x, y})
				}
			}
		}
	}
	return true
}

// sparsePairs is segmentPairs' sparse path. It probes only the free bits
// that vary within xs.
func sparsePairs(xs []uint64, free uint64, emit func(Pair)) {
	slices.Sort(xs)
	and, or := ^uint64(0), uint64(0)
	for _, x := range xs {
		and &= x
		or |= x
	}
	free &= or &^ and
	for i := 0; i < len(xs); {
		x, n := xs[i], i+1
		for n < len(xs) && xs[n] == x {
			n++
		}
		for range n - i {
			above := xs[n:]
			for clr := free &^ x; clr != 0; clr &= clr - 1 {
				y := x | clr&-clr
				k, found := slices.BinarySearch(above, y)
				if !found {
					continue
				}
				for ; k < len(above) && above[k] == y; k++ {
					emit(Pair{x, y})
				}
				above = above[k:]
			}
		}
		i = n
	}
}
