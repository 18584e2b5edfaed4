package bitstr

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	tests := []struct {
		x, y uint64
		d    int
	}{
		{0, 0, 0},
		{0b1010, 0b1010, 0},
		{0b1010, 0b1011, 1},
		{0b0000, 0b1111, 4},
		{0b1100, 0b0011, 4},
	}
	for _, tc := range tests {
		if got := Distance(tc.x, tc.y); got != tc.d {
			t.Errorf("Distance(%b, %b) = %d, want %d", tc.x, tc.y, got, tc.d)
		}
	}
}

func TestFlipAndNeighbors(t *testing.T) {
	x := uint64(0b0101)
	if Flip(x, 1) != 0b0111 {
		t.Errorf("Flip(0101, 1) = %b, want 0111", Flip(x, 1))
	}
	var seen []uint64
	Neighbors(x, 4, func(y uint64) { seen = append(seen, y) })
	if len(seen) != 4 {
		t.Fatalf("Neighbors produced %d strings, want 4", len(seen))
	}
	for _, y := range seen {
		if Distance(x, y) != 1 {
			t.Errorf("neighbor %b at distance %d, want 1", y, Distance(x, y))
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	// b=12, c=3 segments of 4 bits. x = seg2|seg1|seg0.
	x := uint64(0xABC) // seg0=0xC, seg1=0xB, seg2=0xA
	if Segment(x, 0, 3, 12) != 0xC {
		t.Errorf("Segment 0 = %x, want C", Segment(x, 0, 3, 12))
	}
	if Segment(x, 1, 3, 12) != 0xB {
		t.Errorf("Segment 1 = %x, want B", Segment(x, 1, 3, 12))
	}
	if Segment(x, 2, 3, 12) != 0xA {
		t.Errorf("Segment 2 = %x, want A", Segment(x, 2, 3, 12))
	}
}

func TestRemoveSegment(t *testing.T) {
	x := uint64(0xABC)
	if got := RemoveSegment(x, 0, 3, 12); got != 0xAB {
		t.Errorf("RemoveSegment(ABC, 0) = %x, want AB", got)
	}
	if got := RemoveSegment(x, 1, 3, 12); got != 0xAC {
		t.Errorf("RemoveSegment(ABC, 1) = %x, want AC", got)
	}
	if got := RemoveSegment(x, 2, 3, 12); got != 0xBC {
		t.Errorf("RemoveSegment(ABC, 2) = %x, want BC", got)
	}
}

func TestRemoveSegmentsMatchesSingle(t *testing.T) {
	x := uint64(0x5A3)
	for i := 0; i < 3; i++ {
		want := RemoveSegment(x, i, 3, 12)
		got := RemoveSegments(x, 1<<uint(i), 3, 12)
		if got != want {
			t.Errorf("RemoveSegments(mask=1<<%d) = %x, want %x", i, got, want)
		}
	}
	// Removing segments 0 and 2 of ABC leaves segment 1 = B.
	if got := RemoveSegments(0xABC, 0b101, 3, 12); got != 0xB {
		t.Errorf("RemoveSegments(ABC, {0,2}) = %x, want B", got)
	}
}

func TestPieceWeights(t *testing.T) {
	x := uint64(0b111_000_101_011) // 4 pieces of 3 bits, b=12
	ws := PieceWeights(x, 4, 12)
	want := []int{2, 2, 0, 3}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("PieceWeights[%d] = %d, want %d", i, ws[i], want[i])
		}
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120},
		{4, 5, 0}, {4, -1, 0}, {20, 10, 184756},
	}
	for _, tc := range tests {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestChooseSets(t *testing.T) {
	var masks []uint64
	ChooseSets(5, 2, func(m uint64) { masks = append(masks, m) })
	if len(masks) != 10 {
		t.Fatalf("ChooseSets(5,2) produced %d masks, want 10", len(masks))
	}
	seen := map[uint64]bool{}
	for _, m := range masks {
		if bits.OnesCount64(m) != 2 {
			t.Errorf("mask %b has %d bits, want 2", m, bits.OnesCount64(m))
		}
		if m >= 32 {
			t.Errorf("mask %b out of 5-bit universe", m)
		}
		if seen[m] {
			t.Errorf("mask %b repeated", m)
		}
		seen[m] = true
	}
}

func TestChooseSetsEdgeCases(t *testing.T) {
	count := 0
	ChooseSets(4, 0, func(uint64) { count++ })
	if count != 1 {
		t.Errorf("ChooseSets(4,0) fired %d times, want 1", count)
	}
	count = 0
	ChooseSets(4, 4, func(uint64) { count++ })
	if count != 1 {
		t.Errorf("ChooseSets(4,4) fired %d times, want 1", count)
	}
	count = 0
	ChooseSets(4, 5, func(uint64) { count++ })
	if count != 0 {
		t.Errorf("ChooseSets(4,5) fired %d times, want 0", count)
	}
}

// Property: RemoveSegment drops exactly the bits of segment i; two strings
// agreeing outside segment i collapse to the same key.
func TestPropertyRemoveSegmentCollapses(t *testing.T) {
	f := func(xRaw, yRaw uint16, iRaw uint8) bool {
		const b, c = 12, 3
		const segBits = b / c
		i := int(iRaw) % c
		x := uint64(xRaw) & (1<<b - 1)
		// y agrees with x outside segment i, differs arbitrarily inside.
		segMask := uint64((1<<segBits)-1) << uint(i*segBits)
		y := (x &^ segMask) | (uint64(yRaw) & segMask)
		return RemoveSegment(x, i, c, b) == RemoveSegment(y, i, c, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distance-1 strings have half weights (PieceWeights with two
// pieces) differing by exactly 1 in exactly one half — the invariant
// behind the weight-partition algorithm.
func TestPropertyDistanceOneWeights(t *testing.T) {
	f := func(xRaw uint16, bitRaw uint8) bool {
		const b = 16
		x := uint64(xRaw)
		y := Flip(x, int(bitRaw)%b)
		wx, wy := PieceWeights(x, 2, b), PieceWeights(y, 2, b)
		dl, dr := abs(wx[0]-wy[0]), abs(wx[1]-wy[1])
		return (dl == 1 && dr == 0) || (dl == 0 && dr == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: sum of piece weights equals total weight.
func TestPropertyPieceWeightsSum(t *testing.T) {
	f := func(xRaw uint16, dRaw uint8) bool {
		const b = 12
		ds := []int{2, 3, 4, 6}
		d := ds[int(dRaw)%len(ds)]
		x := uint64(xRaw) & (1<<b - 1)
		sum := 0
		for _, w := range PieceWeights(x, d, b) {
			sum += w
		}
		return sum == bits.OnesCount64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
