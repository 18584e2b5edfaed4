// Package bitstr provides fixed-length bit-string utilities for the
// Hamming-distance problems of Section 3 of the paper. A bit string of
// length b ≤ 63 is represented as the low b bits of a uint64; bit 0 is the
// first (leftmost, in the paper's segment terminology) bit.
package bitstr

import "math/bits"

// Universe returns the number of bit strings of length b, i.e. 2^b.
func Universe(b int) int {
	return 1 << uint(b)
}

// Distance is the Hamming distance between x and y.
func Distance(x, y uint64) int {
	return bits.OnesCount64(x ^ y)
}

// Flip returns x with bit i inverted.
func Flip(x uint64, i int) uint64 {
	return x ^ (1 << uint(i))
}

// Neighbors calls fn for each of the b strings at Hamming distance exactly
// 1 from x.
func Neighbors(x uint64, b int, fn func(y uint64)) {
	for i := 0; i < b; i++ {
		fn(Flip(x, i))
	}
}

// Segment extracts the i-th of c equal segments of an x of length b
// (i in [0, c)). b must be divisible by c. Segment 0 holds bits 0..b/c-1.
func Segment(x uint64, i, c, b int) uint64 {
	seg := b / c
	return (x >> uint(i*seg)) & ((1 << uint(seg)) - 1)
}

// RemoveSegment deletes the i-th of c equal segments from x, concatenating
// the remaining bits: the result has b - b/c significant bits. This is the
// reducer key of the Splitting algorithm of Section 3.3.
func RemoveSegment(x uint64, i, c, b int) uint64 {
	seg := b / c
	lowMask := uint64(1)<<uint(i*seg) - 1
	low := x & lowMask
	high := x >> uint((i+1)*seg)
	return low | high<<uint(i*seg)
}

// RemoveSegments deletes the segments whose indices are the set bits of
// segMask (a bitmask over the c segments) and concatenates the rest. It
// generalizes RemoveSegment to the distance-d Splitting algorithm of
// Section 3.6.
func RemoveSegments(x uint64, segMask uint64, c, b int) uint64 {
	seg := b / c
	var out uint64
	shift := 0
	for i := 0; i < c; i++ {
		if segMask&(1<<uint(i)) != 0 {
			continue
		}
		out |= Segment(x, i, c, b) << uint(shift)
		shift += seg
	}
	return out
}

// PieceWeights returns the weights of the d equal pieces of x (Section
// 3.5); b must be divisible by d.
func PieceWeights(x uint64, d, b int) []int {
	piece := b / d
	mask := uint64(1)<<uint(piece) - 1
	ws := make([]int, d)
	for i := 0; i < d; i++ {
		ws[i] = bits.OnesCount64((x >> uint(i*piece)) & mask)
	}
	return ws
}

// Binomial returns C(n, k) as a float64 (exact for the modest sizes the
// experiments use).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}

// ChooseSets calls fn for every k-subset of {0..n-1}, encoded as a bitmask,
// in increasing mask order.
func ChooseSets(n, k int, fn func(mask uint64)) {
	if k < 0 || k > n {
		return
	}
	if k == 0 {
		fn(0)
		return
	}
	// Gosper's hack: iterate masks with exactly k bits.
	mask := uint64(1)<<uint(k) - 1
	limit := uint64(1) << uint(n)
	for mask < limit {
		fn(mask)
		c := mask & (^mask + 1)
		r := mask + c
		mask = (((r ^ mask) >> 2) / c) | r
	}
}
