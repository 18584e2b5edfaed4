package runfile

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// checkWireImage holds T's codec to the image form: it is chosen, and
// on every value its Append and Decode give exactly the plan's bytes and
// the plan's value (compared as memory, so NaN payloads and -0 count),
// and a frame of the wrong length gets the plan's error.
func checkWireImage[T any](t *testing.T, vals ...T) {
	t.Helper()
	c, plan := CodecFor[T](), PlanFor[T]()
	size := int(unsafe.Sizeof(*new(T)))
	if c.image != size {
		t.Fatalf("%T: codec image size %d, want %d", *new(T), c.image, size)
	}
	for _, v := range vals {
		got, err := c.Append(nil, v)
		want := plan.appendTo(nil, unsafe.Pointer(&v))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%T: Append(%+v) = % x (%v), plan writes % x", v, v, got, err, want)
		}
		dec, err := c.Decode(want)
		var ref T
		if perr := plan.decodeInto(want, unsafe.Pointer(&ref)); err != nil || perr != nil {
			t.Fatalf("%T: Decode(% x): %v, plan: %v", v, want, err, perr)
		}
		if !bytes.Equal(ImageBytes([]T{dec}), ImageBytes([]T{ref})) || !bytes.Equal(ImageBytes([]T{dec}), ImageBytes([]T{v})) {
			t.Fatalf("%T: Decode(% x) = %+v, plan decodes %+v, appended %+v", v, want, dec, ref, v)
		}
		for _, short := range [][]byte{want[:len(want)-1], append(want, 0)} {
			_, err := c.Decode(short)
			var x T
			perr := plan.decodeInto(short, unsafe.Pointer(&x))
			if err == nil || perr == nil || err.Error() != perr.Error() {
				t.Fatalf("%T: Decode of %d bytes: %v, plan: %v", v, len(short), err, perr)
			}
		}
	}
}

// TestWireImageCodec: the image codec is chosen exactly for the plans
// whose wire form is their memory image — the Hamming pair and split
// key, a graph edge, matmul's round-2 record, a named int, a complex
// part — and agrees with the plan at the extremes, NaN payloads and -0
// included. A bool, padding (matmul's entry), a trailing gap or a blank
// field keeps the plan's walk.
func TestWireImageCodec(t *testing.T) {
	type (
		pair     struct{ X, Y uint64 }
		splitKey struct {
			Group int
			Rest  uint64
		}
		edge    struct{ U, V int }
		partial struct {
			I, K int
			V    float64
		}
		mixed struct {
			A int32
			B uint32
			X float64
		}
		parts struct {
			C complex64
			D [2]int16
			E int32
		}
		named int
	)
	nan64 := math.Float64frombits(0x7ff8_0000_dead_beef)
	snan64 := math.Float64frombits(0xfff0_0000_0000_0001)
	nan32 := math.Float32frombits(0x7fa0_0001)
	negZero := math.Copysign(0, -1)
	checkWireImage(t, pair{}, pair{math.MaxUint64, 1}, pair{1 << 63, math.MaxUint64})
	checkWireImage(t, splitKey{math.MinInt, math.MaxUint64}, splitKey{math.MaxInt, 0}, splitKey{-1, 1})
	checkWireImage(t, edge{math.MinInt, math.MaxInt}, edge{0, -1})
	checkWireImage(t, partial{1, 2, negZero}, partial{math.MinInt, math.MaxInt, nan64},
		partial{0, 0, math.Inf(-1)}, partial{-1, 1, math.MaxFloat64}, partial{3, 4, math.SmallestNonzeroFloat64})
	checkWireImage(t, mixed{math.MinInt32, math.MaxUint32, snan64}, mixed{math.MaxInt32, 0, negZero})
	checkWireImage(t, parts{complex(nan32, float32(negZero)), [2]int16{math.MinInt16, math.MaxInt16}, -1},
		parts{complex(math.MaxFloat32, -math.SmallestNonzeroFloat32), [2]int16{}, math.MaxInt32})
	checkWireImage(t, named(math.MinInt), named(math.MaxInt), named(0))

	type (
		entry struct {
			Mat      int8
			Row, Col int
			Val      float64
		}
		tail struct {
			A uint64
			B uint32
		}
		blank struct {
			A uint32
			_ uint32
			B uint64
		}
		flag struct {
			A  uint32
			On bool
		}
	)
	for _, image := range []int{CodecFor[entry]().image, CodecFor[tail]().image, CodecFor[blank]().image, CodecFor[flag]().image} {
		if image != 0 {
			t.Errorf("a type whose wire form is not its memory image took the image codec (size %d)", image)
		}
	}
}

// TestWireImageSection: a section of canonical frames decodes by copy,
// without allocating into a presized destination and onto what dst
// already holds; a section that is not exactly n such frames falls back
// to the walk and its verdict.
func TestWireImageSection(t *testing.T) {
	type pair struct{ X, Y uint64 }
	c := CodecFor[pair]()
	vals := []pair{{1, 2}, {3, 4}, {math.MaxUint64, 0}}
	var sec []byte
	for _, v := range vals {
		sec = append(sec, 16)
		sec, _ = c.Append(sec, v)
	}
	got, err := c.DecodeSection(sec, 3, []pair{{9, 9}})
	if err != nil || len(got) != 4 || got[0] != (pair{9, 9}) || got[1] != vals[0] || got[3] != vals[2] {
		t.Fatalf("DecodeSection = %v, %v", got, err)
	}
	dst := make([]pair, 0, 3)
	if n := testing.AllocsPerRun(100, func() { dst, _ = c.DecodeSection(sec, 3, dst[:0]) }); n != 0 {
		t.Errorf("image DecodeSection allocates %v times per call, want 0", n)
	}
	out := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() { out, _ = c.Append(out[:0], vals[2]) }); n != 0 {
		t.Errorf("image Append allocates %v times per call, want 0", n)
	}

	// An overlong length prefix (16 as two bytes) is a frame the walk
	// accepts: the copy declines it and the walk decodes it.
	long := append([]byte{0x90, 0x00}, sec[1:17]...)
	if got, err := c.DecodeSection(long, 1, nil); err != nil || len(got) != 1 || got[0] != vals[0] {
		t.Fatalf("overlong frame: %v, %v", got, err)
	}
	// Miscounted or cut sections keep the walk's verdict.
	for _, tc := range []struct {
		sec []byte
		n   int
	}{{sec, 2}, {sec, 4}, {sec[:len(sec)-1], 3}, {append([]byte{15}, sec[1:]...), 3}} {
		if _, err := c.DecodeSection(tc.sec, tc.n, nil); err == nil {
			t.Errorf("DecodeSection(%d bytes, n=%d) = nil error", len(tc.sec), tc.n)
		}
	}
}
