package runfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"unsafe"
)

// buildFile writes groups to an in-memory v2 run file and returns the
// bytes and footer index.
func buildFile(t *testing.T, groups map[string][][]byte, order []string) ([]byte, []IndexEntry) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, k := range order {
		if err := writeGroup(w, []byte(k), groups[k]); err != nil {
			t.Fatalf("writeGroup(%q): %v", k, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	idx, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	return buf.Bytes(), idx
}

// TestGroupBatchMatchesPerValueReader: the batch reader — with the
// footer index driving single-pass section reads, and without it —
// must yield byte-for-byte the same keys and payloads as the per-value
// Reader, including empty values and zero-value groups.
func TestGroupBatchMatchesPerValueReader(t *testing.T) {
	groups := map[string][][]byte{
		"a":     {[]byte("v1"), []byte(""), []byte("a long enough value to matter")},
		"bb":    {},
		"ccc":   {[]byte{0, 1, 2, 3, 255}},
		"dddd":  {[]byte("x"), []byte("y"), []byte("z"), []byte("w")},
		"eeeee": {bytes.Repeat([]byte("E"), 3000)},
	}
	order := []string{"a", "bb", "ccc", "dddd", "eeeee"}
	data, idx := buildFile(t, groups, order)

	// Reference: the per-value Reader.
	type group struct {
		key  string
		vals [][]byte
	}
	var want []group
	r := NewReader(bytes.NewReader(data))
	for {
		k, n, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		g := group{key: string(k)}
		for i := 0; i < n; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatal(err)
			}
			g.vals = append(g.vals, v)
		}
		want = append(want, g)
	}

	for name, index := range map[string][]IndexEntry{"indexed": idx, "index-free": nil} {
		var got []group
		gb := NewGroupBatch(bytes.NewReader(data), index)
		for {
			k, vb, err := gb.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g := group{key: string(k)}
			for i := 0; i < vb.Len(); i++ {
				g.vals = append(g.vals, append([]byte(nil), vb.Value(i)...))
			}
			got = append(got, g)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batch read diverges from per-value read\ngot  %v\nwant %v", name, got, want)
		}
	}
}

// TestGroupBatchRawRoundTrip: a batch's Raw section replayed through
// AppendRawBytes must reproduce the original group bytes — whether the
// section was read in one indexed pass or the framing was rebuilt on
// the index-free path.
func TestGroupBatchRawRoundTrip(t *testing.T) {
	groups := map[string][][]byte{
		"k1": {[]byte("alpha"), []byte(""), []byte("beta")},
		"k2": {[]byte{7}},
		"k3": {},
	}
	data, idx := buildFile(t, groups, []string{"k1", "k2", "k3"})

	for name, index := range map[string][]IndexEntry{"indexed": idx, "index-free": nil} {
		var out bytes.Buffer
		w := NewWriter(&out)
		gb := NewGroupBatch(bytes.NewReader(data), index)
		for {
			k, vb, err := gb.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.BeginGroup(k, vb.Len()); err != nil {
				t.Fatal(err)
			}
			if err := w.AppendRawBytes(vb.Raw(), vb.Len()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%s: raw replay of batches does not reproduce the original file", name)
		}
	}
}

// TestGroupBatchDetectsGroupShortfall: a file truncated at a clean
// group boundary still parses as a valid shorter stream, but an index
// that promises more groups must turn the early EOF into ErrCorrupt —
// not a silently shorter dataset.
func TestGroupBatchDetectsGroupShortfall(t *testing.T) {
	groups := map[string][][]byte{
		"a": {[]byte("one"), []byte("two")},
		"b": {[]byte("three")},
		"c": {[]byte("four")},
	}
	data, idx := buildFile(t, groups, []string{"a", "b", "c"})
	truncated := data[:idx[2].Offset] // ends cleanly after group "b"

	gb := NewGroupBatch(bytes.NewReader(truncated), idx)
	seen := 0
	for {
		_, _, err := gb.Next()
		if err == nil {
			seen++
			continue
		}
		if err == io.EOF {
			t.Fatalf("clean EOF after %d groups despite a 3-entry index (silent truncation)", seen)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error class: %v", err)
		}
		break
	}
	if seen != 2 {
		t.Fatalf("streamed %d groups before the shortfall error, want 2", seen)
	}
}

// TestGroupBatchRejectsCorruptStreams: truncated or garbage inputs
// must fail with ErrCorrupt (or clean EOF), never panic.
func TestGroupBatchRejectsCorruptStreams(t *testing.T) {
	groups := map[string][][]byte{"key": {[]byte("value-one"), []byte("value-two")}}
	data, idx := buildFile(t, groups, []string{"key"})
	for cut := 0; cut < len(data); cut++ {
		for _, index := range [][]IndexEntry{idx, nil} {
			gb := NewGroupBatch(bytes.NewReader(data[:cut]), index)
			for {
				_, _, err := gb.Next()
				if err == nil {
					continue
				}
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d: unexpected error class %v", cut, err)
				}
				break
			}
		}
	}
	// An index lying about the value-section geometry is caught.
	lying := append([]IndexEntry(nil), idx...)
	lying[0].Count++
	gb := NewGroupBatch(bytes.NewReader(data), lying)
	if _, _, err := gb.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count-mismatch index: err = %v, want ErrCorrupt", err)
	}
}

// checkDecodeBatchKind encodes vals with Append, batch-reads them, and
// verifies DecodeBatch agrees with per-value Decode.
func checkDecodeBatchKind[T comparable](t *testing.T, vals []T) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.BeginGroup([]byte("k"), len(vals)); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for _, v := range vals {
		enc, err := Append(scratch[:0], v)
		if err != nil {
			t.Fatalf("Append(%v): %v", v, err)
		}
		scratch = enc
		if err := w.AppendValue(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	gb := NewGroupBatch(bytes.NewReader(buf.Bytes()), nil)
	_, vb, err := gb.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch[T](vb, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("DecodeBatch = %v, want %v", got, vals)
	}
	// Per-value Decode must agree payload by payload.
	for i := range vals {
		v, err := Decode[T](vb.Value(i))
		if err != nil || v != vals[i] {
			t.Fatalf("Decode value %d = %v (%v), want %v", i, v, err, vals[i])
		}
	}
}

func TestDecodeBatchKinds(t *testing.T) {
	checkDecodeBatchKind(t, []int{0, -1, 1, 1 << 40, -(1 << 40)})
	checkDecodeBatchKind(t, []int8{-128, 0, 127})
	checkDecodeBatchKind(t, []int16{-32768, 5, 32767})
	checkDecodeBatchKind(t, []int32{-1 << 30, 0, 1 << 30})
	checkDecodeBatchKind(t, []int64{-1 << 62, 7, 1 << 62})
	checkDecodeBatchKind(t, []uint{0, 1, 1 << 60})
	checkDecodeBatchKind(t, []uint8{0, 200, 255})
	checkDecodeBatchKind(t, []uint16{0, 65535})
	checkDecodeBatchKind(t, []uint32{0, 1 << 31})
	checkDecodeBatchKind(t, []uint64{0, 1 << 63})
	checkDecodeBatchKind(t, []uintptr{0, 4096})
	checkDecodeBatchKind(t, []float32{0, -1.5, 3.25})
	checkDecodeBatchKind(t, []float64{0, -1.5, 1e300})
	checkDecodeBatchKind(t, []bool{true, false, true})
	checkDecodeBatchKind(t, []string{"", "a", "longer string value"})

	type edge struct{ U, V int }
	checkDecodeBatchKind(t, []edge{{1, 2}, {-3, 4}, {0, 0}})

	// A string part makes the plan's wire size vary.
	type boxed struct{ S string }
	checkDecodeBatchKind(t, []boxed{{"x"}, {""}, {"yz"}})
}

// TestDecodeBatchCopiesReferencePayloads: decoded []byte values must
// not alias the batch arena — mutating the arena afterwards (as the
// next ReadValueBatch would) must leave them intact.
func TestDecodeBatchCopiesReferencePayloads(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := writeGroup(w, []byte("k"), [][]byte{[]byte("abc"), []byte("def")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	gb := NewGroupBatch(bytes.NewReader(buf.Bytes()), nil)
	_, vb, err := gb.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch[[]byte](vb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vb.arena {
		vb.arena[i] = 'X'
	}
	if string(got[0]) != "abc" || string(got[1]) != "def" {
		t.Fatalf("decoded []byte values alias the arena: %q %q", got[0], got[1])
	}
}

// TestFixedCodecRoundTrip: fixed-width structs and named scalars use
// the compiled-plan codec — exact round trips at the packed wire size,
// with no per-value framing.
func TestFixedCodecRoundTrip(t *testing.T) {
	type inner struct {
		A int16
		B [3]uint8
	}
	type fixed struct {
		I   int
		I8  int8
		U32 uint32
		F   float64
		G   float32
		B   bool
		C64 complex64
		C   complex128
		In  inner
	}
	v := fixed{
		I: -42, I8: 7, U32: 1 << 31, F: -2.5, G: 0.5, B: true,
		C64: complex(1.5, -2.5), C: complex(3.5, -4.5),
		In: inner{A: -300, B: [3]uint8{1, 2, 3}},
	}
	enc, err := Append(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	// Packed wire size: 8+1+4+8+4+1+8+16 + (2+3) = 55 bytes.
	if len(enc) != 55 {
		t.Fatalf("fixed encoding is %d bytes, want 55", len(enc))
	}
	got, err := Decode[fixed](enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip = %+v, want %+v", got, v)
	}
	// Wrong-length input fails loudly rather than decoding garbage.
	if _, err := Decode[fixed](enc[:len(enc)-1]); err == nil {
		t.Fatal("short fixed input decoded without error")
	}

	type id int64
	nv := id(-99)
	enc2, err := Append(nil, nv)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc2) != 8 {
		t.Fatalf("named int64 encoding is %d bytes, want 8", len(enc2))
	}
	got2, err := Decode[id](enc2)
	if err != nil || got2 != nv {
		t.Fatalf("named scalar round trip = %v (%v), want %v", got2, err, nv)
	}
}

// TestFixedPlanEligibility pins which types compile a plan — and so
// have a codec — and which have neither.
func TestFixedPlanEligibility(t *testing.T) {
	type fixedOK struct {
		A int
		B [4]float32
	}
	type hasString struct {
		A int
		S string
	}
	type hasSlice struct{ Xs []int }
	type hasPtr struct{ P *int }
	type hasUnexported struct {
		A int
		b int
	}
	type huge struct{ Xs [1000]int8 }
	if PlanFor[fixedOK]() == nil || PlanFor[hasString]() == nil || PlanFor[hasUnexported]() == nil || PlanFor[huge]() == nil {
		t.Error("a struct of numbers and strings did not compile a plan")
	}
	if PlanFor[hasSlice]() != nil || PlanFor[hasPtr]() != nil {
		t.Error("a slice or pointer field must leave the type without a plan")
	}
	hu := hasUnexported{A: 1, b: 2}
	enc, err := Append(nil, hu)
	if err != nil || len(enc) != 16 {
		t.Fatalf("unexported field: %d bytes (%v), want the plan's 16", len(enc), err)
	}
	if got, err := Decode[hasUnexported](enc); err != nil || got != hu {
		t.Fatalf("unexported field round trip = %+v (%v), want %+v", got, err, hu)
	}
	// A type without a plan has no codec: both directions fail.
	if _, err := Append(nil, hasSlice{Xs: []int{1}}); err == nil {
		t.Error("Append of a slice-bearing type succeeded")
	}
	if _, err := Decode[hasSlice](nil); err == nil {
		t.Error("Decode of a slice-bearing type succeeded")
	}
	if _, err := CodecFor[hasPtr]().Append(nil, hasPtr{}); err == nil {
		t.Error("CodecFor of a pointer-bearing type encoded")
	}
}

// TestReadValueBatchAgainstSkip: a reader that batch-reads some groups
// and skips others keeps its framing exact either way.
func TestReadValueBatchAgainstSkip(t *testing.T) {
	groups := map[string][][]byte{}
	var order []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		order = append(order, k)
		for j := 0; j <= i%4; j++ {
			groups[k] = append(groups[k], []byte(fmt.Sprintf("v-%d-%d", i, j)))
		}
	}
	data, idx := buildFile(t, groups, order)
	r := NewReader(bytes.NewReader(data))
	var batch ValueBatch
	for i := 0; ; i++ {
		k, _, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := r.ReadValueBatch(&batch, idx[i].ValueBytes); err != nil {
				t.Fatalf("group %q: %v", k, err)
			}
			if batch.Len() != len(groups[string(k)]) {
				t.Fatalf("group %q: batch has %d values, want %d", k, batch.Len(), len(groups[string(k)]))
			}
		} // odd groups: Next skips the unread values
	}
}

// checkCodecKind requires CodecFor's resolved functions to produce
// Append's bytes exactly, and to decode them back as Decode does.
func checkCodecKind[T comparable](t *testing.T, vals []T) {
	t.Helper()
	c := CodecFor[T]()
	for _, v := range vals {
		want, err := Append(nil, v)
		if err != nil {
			t.Fatalf("Append(%T %v): %v", v, v, err)
		}
		got, err := c.Append(nil, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("CodecFor[%T].Append(%v) = %x (%v), Append = %x", v, v, got, err, want)
		}
		back, err := c.Decode(got)
		if err != nil || back != v {
			t.Fatalf("CodecFor[%T].Decode = %v (%v), want %v", v, back, err, v)
		}
	}
}

// TestCodecForMatchesAppend pins the resolved codec to the per-call one
// over the codec's kind table: the typed kinds, named scalars (which
// take the plan, not the typed switch, and must keep its bytes),
// fixed-width structs and a struct with a string.
func TestCodecForMatchesAppend(t *testing.T) {
	checkCodecKind(t, []int{0, -1, 1, 1 << 40, -(1 << 40)})
	checkCodecKind(t, []int8{-128, 0, 127})
	checkCodecKind(t, []int16{-32768, 5, 32767})
	checkCodecKind(t, []int32{-1 << 30, 0, 1 << 30})
	checkCodecKind(t, []int64{-1 << 62, 7, 1 << 62})
	checkCodecKind(t, []uint{0, 1, 1 << 60})
	checkCodecKind(t, []uint8{0, 200, 255})
	checkCodecKind(t, []uint16{0, 65535})
	checkCodecKind(t, []uint32{0, 1 << 31})
	checkCodecKind(t, []uint64{0, 1 << 63})
	checkCodecKind(t, []uintptr{0, 4096})
	checkCodecKind(t, []float32{0, -1.5, 3.25})
	checkCodecKind(t, []float64{0, -1.5, 1e300})
	checkCodecKind(t, []bool{true, false})
	checkCodecKind(t, []string{"", "a", "longer string value"})

	type id int64
	type small uint8
	type name string
	type flag bool
	checkCodecKind(t, []id{-99, 0, 1 << 50})
	checkCodecKind(t, []small{0, 255})
	checkCodecKind(t, []name{"", "x"})
	checkCodecKind(t, []flag{true, false})

	type edge struct{ U, V int }
	type cell struct {
		Tag  int8
		I, J int
		X    float64
	}
	checkCodecKind(t, []edge{{1, 2}, {-3, 4}})
	checkCodecKind(t, []cell{{1, 2, 3, 0.5}, {-1, 0, 0, -2}})
	type boxed struct{ S string }
	checkCodecKind(t, []boxed{{"x"}, {""}})

	// []byte is not comparable; its bytes alone are pinned.
	if got, _ := CodecFor[[]byte]().Append(nil, []byte("ab")); string(got) != "ab" {
		t.Fatalf("CodecFor[[]byte].Append = %q, want \"ab\"", got)
	}
}

// TestImageSize pins which types may travel as a memory image: numeric
// kinds and arrays and structs of them, at their memory size; nothing
// with a bool, a pointer or a reference, and nothing of size zero.
func TestImageSize(t *testing.T) {
	type cell struct {
		Tag  int8
		I, J int
		X    float64
	}
	type pair struct {
		K int
		V cell
	}
	type hasBool struct {
		On bool
		N  int
	}
	type hasString struct {
		S string
		N int
	}
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"int", ImageSize[int](), 8},
		{"int8", ImageSize[int8](), 1},
		{"uintptr", ImageSize[uintptr](), int(unsafe.Sizeof(uintptr(0)))},
		{"float32", ImageSize[float32](), 4},
		{"complex128", ImageSize[complex128](), 16},
		{"[3]uint16", ImageSize[[3]uint16](), 6},
		{"padded struct", ImageSize[cell](), 32},
		{"nested pair", ImageSize[pair](), 40},
		{"bool", ImageSize[bool](), 0},
		{"struct with bool", ImageSize[hasBool](), 0},
		{"string", ImageSize[string](), 0},
		{"struct with string", ImageSize[hasString](), 0},
		{"pointer", ImageSize[*int](), 0},
		{"slice", ImageSize[[]int](), 0},
		{"map", ImageSize[map[int]int](), 0},
		{"interface", ImageSize[any](), 0},
		{"empty struct", ImageSize[struct{}](), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("ImageSize[%s] = %d, want %d", tc.name, tc.got, tc.want)
		}
	}

	cells := []cell{{1, 2, 3, 0.5}, {-1, -2, -3, 4}}
	img := ImageBytes(cells)
	if len(img) != 2*32 {
		t.Fatalf("ImageBytes of 2 cells is %d bytes, want 64", len(img))
	}
	back := make([]cell, 2)
	copy(ImageBytes(back), img)
	if !reflect.DeepEqual(back, cells) {
		t.Fatalf("image round trip = %v, want %v", back, cells)
	}
}
