package hamming

import (
	"fmt"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/mr"
)

// SplittingSchema is the Splitting algorithm of Section 3.3 (after [3]):
// each string of length b is split into c equal segments; for each segment
// index g there is one group of reducers, keyed by the string with segment
// g removed. Every input is sent to exactly c reducers, so the replication
// rate is exactly c, matching the lower bound b/log₂q at q = 2^{b/c}
// (ignoring the negligible chance a reducer receives every string sharing
// its key — reducer size is exactly 2^{b/c}).
type SplittingSchema struct {
	B, C int
}

// NewSplittingSchema returns the schema for strings of length b split into
// c segments. c must divide b.
func NewSplittingSchema(b, c int) (SplittingSchema, error) {
	if c < 1 || b%c != 0 {
		return SplittingSchema{}, fmt.Errorf("hamming: c=%d must divide b=%d", c, b)
	}
	return SplittingSchema{B: b, C: c}, nil
}

// ReducerSize is the number of inputs each reducer receives: 2^{b/c}
// strings share each "segment removed" key.
func (s SplittingSchema) ReducerSize() int {
	return bitstr.Universe(s.B / s.C)
}

// NumReducers implements core.MappingSchema: c groups of 2^{b-b/c} keys.
func (s SplittingSchema) NumReducers() int {
	return s.C * bitstr.Universe(s.B-s.B/s.C)
}

// Assign implements core.MappingSchema: input x goes to the group-g reducer
// keyed by x with segment g removed, for every g.
func (s SplittingSchema) Assign(in int) []int {
	x := uint64(in)
	perGroup := bitstr.Universe(s.B - s.B/s.C)
	rs := make([]int, s.C)
	for g := 0; g < s.C; g++ {
		key := bitstr.RemoveSegment(x, g, s.C, s.B)
		rs[g] = g*perGroup + int(key)
	}
	return rs
}

var _ core.MappingSchema = SplittingSchema{}

// splitKey identifies one Splitting reducer: the group (removed segment)
// and the remaining bits.
type splitKey struct {
	Group int
	Rest  uint64
}

// RunSplitting executes the Splitting algorithm as a real MapReduce job
// over the given input strings, returning the distance-1 pairs found, the
// round metrics, and an error if the job fails. Each qualifying pair is
// produced exactly once: a pair at distance 1 differs in exactly one
// segment, so exactly one reducer group co-locates it.
func RunSplitting(s SplittingSchema, inputs []uint64, cfg mr.Config) ([]Pair, mr.Metrics, error) {
	w := s.B / s.C
	job := &mr.Job[uint64, splitKey, uint64, Pair]{
		Name: fmt.Sprintf("hamming-splitting(b=%d,c=%d)", s.B, s.C),
		Map: func(x uint64, emit func(splitKey, uint64)) {
			for g := 0; g < s.C; g++ {
				emit(splitKey{g, bitstr.RemoveSegment(x, g, s.C, s.B)}, x)
			}
		},
		// A group agrees outside its removed segment, so its
		// distance-1 pairs are the segment's one-bit neighbours.
		Reduce: func(k splitKey, xs []uint64, emit func(Pair)) {
			segmentPairs(xs, (1<<w-1)<<(k.Group*w), emit)
		},
		Config: cfg,
	}
	return job.Run(inputs)
}

// PairSchema is the q = 2 extreme of Section 3.3: one reducer per
// distance-1 pair, so every input string is sent to exactly the b
// reducers of the b pairs it belongs to — replication rate exactly b,
// matching the lower bound b/log₂2 = b. It is the maximum-parallelism
// endpoint of Figure 1.
type PairSchema struct {
	B int
}

// NewPairSchema returns the q = 2 schema for strings of length b.
func NewPairSchema(b int) PairSchema { return PairSchema{B: b} }

// NumReducers implements core.MappingSchema: one per output,
// (b/2)·2^b pairs.
func (s PairSchema) NumReducers() int {
	return s.B * bitstr.Universe(s.B) / 2
}

// pairIndex ranks the pair {x, x^(1<<i)}: pairs are enumerated as (y, i)
// where y has bit i clear.
func (s PairSchema) pairIndex(x uint64, bit int) int {
	y := x &^ (1 << uint(bit)) // the endpoint with bit clear
	// Rank of y among strings with bit `bit` clear: drop the bit.
	rank := int(bitstr.RemoveSegments(y, 1<<uint(bit), s.B, s.B))
	return bit*bitstr.Universe(s.B-1) + rank
}

// Assign implements core.MappingSchema: x joins the b reducers of the b
// pairs containing it.
func (s PairSchema) Assign(in int) []int {
	x := uint64(in)
	rs := make([]int, s.B)
	for i := 0; i < s.B; i++ {
		rs[i] = s.pairIndex(x, i)
	}
	return rs
}

var _ core.MappingSchema = PairSchema{}

// SplittingDSchema is the generalized Splitting algorithm for Hamming
// distance up to d (Section 3.6): split each string into c segments, and
// use one reducer group for every d-subset of segments to delete. An input
// is sent to C(c,d) reducers, so r = C(c,d) ≈ (ec/d)^d / √(2πd); any two
// strings at distance ≤ d differ in at most d segments and therefore share
// the reducer that deletes a superset of those segments.
type SplittingDSchema struct {
	B, C, D int
	masks   []uint64 // the C(c,d) deletion masks, in increasing order
}

// NewSplittingDSchema builds the distance-d schema; c must divide b and
// 1 ≤ d ≤ c.
func NewSplittingDSchema(b, c, d int) (*SplittingDSchema, error) {
	if c < 1 || b%c != 0 {
		return nil, fmt.Errorf("hamming: c=%d must divide b=%d", c, b)
	}
	if d < 1 || d > c {
		return nil, fmt.Errorf("hamming: need 1 <= d=%d <= c=%d", d, c)
	}
	s := &SplittingDSchema{B: b, C: c, D: d}
	bitstr.ChooseSets(c, d, func(m uint64) { s.masks = append(s.masks, m) })
	return s, nil
}

// ReducerSize is the number of strings sharing one key: 2^{d·b/c}.
func (s *SplittingDSchema) ReducerSize() int {
	return bitstr.Universe(s.D * s.B / s.C)
}

// NumReducers implements core.MappingSchema.
func (s *SplittingDSchema) NumReducers() int {
	return len(s.masks) * bitstr.Universe(s.B-s.D*s.B/s.C)
}

// Assign implements core.MappingSchema.
func (s *SplittingDSchema) Assign(in int) []int {
	x := uint64(in)
	perGroup := bitstr.Universe(s.B - s.D*s.B/s.C)
	rs := make([]int, len(s.masks))
	for gi, m := range s.masks {
		key := bitstr.RemoveSegments(x, m, s.C, s.B)
		rs[gi] = gi*perGroup + int(key)
	}
	return rs
}

var _ core.MappingSchema = (*SplittingDSchema)(nil)

// differingSegments returns the bitmask of segments in which x and y
// differ.
func differingSegments(x, y uint64, c, b int) uint64 {
	var mask uint64
	for g := 0; g < c; g++ {
		if bitstr.Segment(x, g, c, b) != bitstr.Segment(y, g, c, b) {
			mask |= 1 << uint(g)
		}
	}
	return mask
}

// canonicalDeletionMask returns the lexicographically smallest d-subset of
// the c segments (as a bitmask, smallest numeric value) that contains
// diff. It defines the unique reducer allowed to produce a pair, giving
// the generalized Splitting algorithm exactly-once output semantics.
func canonicalDeletionMask(diff uint64, c, d int) uint64 {
	mask := diff
	need := d - popcount(diff)
	for g := 0; g < c && need > 0; g++ {
		bit := uint64(1) << uint(g)
		if mask&bit == 0 {
			mask |= bit
			need--
		}
	}
	return mask
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

type splitDKey struct {
	Mask uint64
	Rest uint64
}

// RunSplittingD executes the generalized Splitting algorithm for distance
// up to s.D as a MapReduce job, producing each qualifying pair exactly
// once via the canonical-deletion-mask rule.
func RunSplittingD(s *SplittingDSchema, inputs []uint64, cfg mr.Config) ([]Pair, mr.Metrics, error) {
	job := &mr.Job[uint64, splitDKey, uint64, Pair]{
		Name: fmt.Sprintf("hamming-splitting-d(b=%d,c=%d,d=%d)", s.B, s.C, s.D),
		Map: func(x uint64, emit func(splitDKey, uint64)) {
			for _, m := range s.masks {
				emit(splitDKey{m, bitstr.RemoveSegments(x, m, s.C, s.B)}, x)
			}
		},
		Reduce: func(k splitDKey, xs []uint64, emit func(Pair)) {
			slices.Sort(xs)
			for i := 0; i < len(xs); i++ {
				for j := i + 1; j < len(xs); j++ {
					x, y := xs[i], xs[j]
					dist := bitstr.Distance(x, y)
					if dist < 1 || dist > s.D {
						continue
					}
					diff := differingSegments(x, y, s.C, s.B)
					if canonicalDeletionMask(diff, s.C, s.D) == k.Mask {
						emit(Pair{x, y})
					}
				}
			}
		},
		Config: cfg,
	}
	return job.Run(inputs)
}
