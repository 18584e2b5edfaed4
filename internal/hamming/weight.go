package hamming

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/mr"
)

// WeightSchema is the weight-partition algorithm of Sections 3.4 (d = 2)
// and 3.5 (general d) for reducer sizes q close to 2^b. Each string of
// length b is cut into d pieces of length b/d; a cell of the d-dimensional
// grid is the tuple of weight groups of the pieces, where weights
// 0..b/d are partitioned into groups of k consecutive weights (the last
// group also absorbing the weight b/d). A string is assigned to its own
// cell, and additionally replicated to the neighboring lower cell in every
// dimension where its piece weight sits on the lower border of its group,
// so that flipping a 1-bit (which lowers one piece weight by 1) still
// lands in a shared cell. The replication rate is 1 + d/k on average.
type WeightSchema struct {
	B, K, D   int
	pieceLen  int
	numGroups int
}

// NewWeightSchema builds the schema; d must divide b and k must divide b/d.
func NewWeightSchema(b, k, d int) (*WeightSchema, error) {
	if d < 1 || b%d != 0 {
		return nil, fmt.Errorf("hamming: d=%d must divide b=%d", d, b)
	}
	pieceLen := b / d
	if k < 1 || pieceLen%k != 0 {
		return nil, fmt.Errorf("hamming: k=%d must divide piece length %d", k, pieceLen)
	}
	return &WeightSchema{B: b, K: k, D: d, pieceLen: pieceLen, numGroups: pieceLen / k}, nil
}

// group maps a piece weight to its weight-group index. Groups are
// [0,k-1], [k,2k-1], ..., with the final group absorbing the extra weight
// b/d, exactly as in the paper.
func (s *WeightSchema) group(w int) int {
	g := w / s.K
	if g >= s.numGroups {
		g = s.numGroups - 1
	}
	return g
}

// onLowerBorder reports whether piece weight w is the lowest weight of its
// group (and the group is not the bottom one), which forces replication to
// the neighboring lower cell.
func (s *WeightSchema) onLowerBorder(w int) bool {
	g := s.group(w)
	return g > 0 && w == g*s.K
}

// cellID packs a tuple of group indices into a single reducer index.
func (s *WeightSchema) cellID(groups []int) int {
	id := 0
	for _, g := range groups {
		id = id*s.numGroups + g
	}
	return id
}

// NumReducers implements core.MappingSchema: (pieceLen/k)^d cells.
func (s *WeightSchema) NumReducers() int {
	n := 1
	for i := 0; i < s.D; i++ {
		n *= s.numGroups
	}
	return n
}

// Assign implements core.MappingSchema: the primary cell plus one replica
// per lower-border dimension.
func (s *WeightSchema) Assign(in int) []int {
	ws := bitstr.PieceWeights(uint64(in), s.D, s.B)
	groups := make([]int, s.D)
	for i, w := range ws {
		groups[i] = s.group(w)
	}
	rs := []int{s.cellID(groups)}
	for i, w := range ws {
		if s.onLowerBorder(w) {
			groups[i]--
			rs = append(rs, s.cellID(groups))
			groups[i]++
		}
	}
	return rs
}

var _ core.MappingSchema = (*WeightSchema)(nil)

// ExpectedReplication is the paper's asymptotic replication rate 1 + d/k.
func (s *WeightSchema) ExpectedReplication() float64 {
	return 1 + float64(s.D)/float64(s.K)
}

// PredictedMaxCell estimates the most populous cell as
// (k · C(b/d, b/2d))^d ≈ k^d · 2^b · (2d/(πb))^{d/2} strings, using the
// correct central-binomial asymptotic C(n, n/2) ≈ 2^n·√(2/(πn)). The
// paper's Section 3.4 expression k²·2^b/(πb) uses 2^n/√(2πn) instead,
// which drops a factor of 2 per dimension (see PaperPredictedMaxCell):
// the printed estimate is 2^d too small, as mrbounds notes under its
// table. Border replicas add a further (1 + 1/k)^d factor not in either.
func (s *WeightSchema) PredictedMaxCell() float64 {
	b, d, k := float64(s.B), float64(s.D), float64(s.K)
	return math.Pow(k, d) * math.Exp2(b) * math.Pow(2*d/(math.Pi*b), d/2)
}

// PaperPredictedMaxCell is the estimate exactly as printed in Sections 3.4
// and 3.5 of the paper: k^d · 2^b / (b^{d/2} (2π/d)^{d/2}); for d = 2 this
// is k²·2^b/(πb). It understates the true maximum by a factor of about 2^d
// because of a slipped Stirling constant.
func (s *WeightSchema) PaperPredictedMaxCell() float64 {
	b, d, k := float64(s.B), float64(s.D), float64(s.K)
	return math.Pow(k, d) * math.Exp2(b) / (math.Pow(b, d/2) * math.Pow(2*math.Pi/d, d/2))
}

// RunWeight executes the weight-partition algorithm as a MapReduce job over
// the given strings, returning distance-1 pairs exactly once. The
// exactly-once rule: a pair {x, y} with y = x plus one extra 1-bit is
// produced only by the primary cell of x (the lower-weight string); the
// coverage argument of Section 3.4 guarantees y is present in that cell,
// either natively or as a border replica.
func RunWeight(s *WeightSchema, inputs []uint64, cfg mr.Config) ([]Pair, mr.Metrics, error) {
	primary := func(x uint64) int {
		ws := bitstr.PieceWeights(x, s.D, s.B)
		groups := make([]int, s.D)
		for i, w := range ws {
			groups[i] = s.group(w)
		}
		return s.cellID(groups)
	}
	job := &mr.Job[uint64, int, uint64, Pair]{
		Name: fmt.Sprintf("hamming-weight(b=%d,k=%d,d=%d)", s.B, s.K, s.D),
		Map: func(x uint64, emit func(int, uint64)) {
			for _, cell := range s.Assign(int(x)) {
				emit(cell, x)
			}
		},
		// Every bit is free; the kernel probes those that vary in the
		// cell. Its pairs have Y = X | bit, so X is the lower string.
		Reduce: func(cell int, xs []uint64, emit func(Pair)) {
			segmentPairs(xs, ^uint64(0), func(p Pair) {
				if primary(p.X) == cell {
					emit(p)
				}
			})
		},
		Config: cfg,
	}
	return job.Run(inputs)
}
