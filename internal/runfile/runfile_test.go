package runfile

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	groups := []struct {
		key    string
		values []string
	}{
		{"alpha", []string{"1", "22", ""}},
		{"beta", nil},
		{"", []string{"only"}},
		{"gamma", []string{"x"}},
	}
	for _, g := range groups {
		vals := make([][]byte, len(g.values))
		for i, v := range g.values {
			vals[i] = []byte(v)
		}
		if err := w.WriteGroup([]byte(g.key), vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Groups() != 4 || w.Pairs() != 5 {
		t.Errorf("Groups=%d Pairs=%d, want 4 groups, 5 pairs", w.Groups(), w.Pairs())
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Errorf("BytesWritten=%d, buffer has %d", w.BytesWritten(), buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	for gi, g := range groups {
		key, n, err := r.Next()
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		if string(key) != g.key || n != len(g.values) {
			t.Fatalf("group %d: key %q n %d, want %q %d", gi, key, n, g.key, len(g.values))
		}
		for vi := range g.values {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("group %d value %d: %v", gi, vi, err)
			}
			if string(v) != g.values[vi] {
				t.Fatalf("group %d value %d = %q, want %q", gi, vi, v, g.values[vi])
			}
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last group: err = %v, want io.EOF", err)
	}
}

func TestReaderSkipsUnreadValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteGroup([]byte("a"), [][]byte{[]byte("v1"), []byte("v2"), []byte("v3")})
	w.WriteGroup([]byte("b"), [][]byte{[]byte("w1")})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	key, n, err := r.Next()
	if err != nil || string(key) != "a" || n != 3 {
		t.Fatalf("first group: %q %d %v", key, n, err)
	}
	// Read one of three values, then jump to the next group.
	if v, err := r.Value(); err != nil || string(v) != "v1" {
		t.Fatalf("value: %q %v", v, err)
	}
	key, n, err = r.Next()
	if err != nil || string(key) != "b" || n != 1 {
		t.Fatalf("second group: %q %d %v", key, n, err)
	}
	if v, err := r.Value(); err != nil || string(v) != "w1" {
		t.Fatalf("value: %q %v", v, err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteGroup([]byte("key"), [][]byte{[]byte("value")})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:3],
		"bad magic":     append([]byte("XXXXX"), good[5:]...),
		"truncated mid": good[:len(good)-2],
	}
	for name, data := range cases {
		r := NewReader(bytes.NewReader(data))
		_, _, err := r.Next()
		if err == nil {
			// Truncation may only surface when the values are read.
			_, err = r.Value()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// A huge length prefix must be rejected, not allocated.
	huge := append(append([]byte{}, magicPrefix[:]...), Version2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := NewReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge length: err = %v, want ErrCorrupt", err)
	}
}

func TestValueWithoutGroupFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteGroup([]byte("k"), nil)
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Value(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Value on empty group: err = %v, want ErrCorrupt", err)
	}
}

func TestCodecFastPathsRoundTrip(t *testing.T) {
	checkRT(t, int(-42))
	checkRT(t, int8(-7))
	checkRT(t, int16(-1234))
	checkRT(t, int32(1<<30))
	checkRT(t, int64(-1<<62))
	checkRT(t, uint(42))
	checkRT(t, uint8(255))
	checkRT(t, uint16(65535))
	checkRT(t, uint32(1<<31))
	checkRT(t, uint64(1<<63))
	checkRT(t, uintptr(12345))
	checkRT(t, float32(3.5))
	checkRT(t, float64(-2.718281828))
	checkRT(t, true)
	checkRT(t, false)
	checkRT(t, "hello, 世界")
	checkRT(t, "")
}

func checkRT[T comparable](t *testing.T, v T) {
	t.Helper()
	data, err := Append[T](nil, v)
	if err != nil {
		t.Fatalf("Append(%v): %v", v, err)
	}
	got, err := Decode[T](data)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if got != v {
		t.Errorf("round trip %T: got %v, want %v", v, got, v)
	}
}

func TestCodecBytesAndGobFallback(t *testing.T) {
	b := []byte{0, 1, 2, 255}
	data, err := Append(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode[[]byte](data)
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Errorf("[]byte round trip: %v %v", got, err)
	}

	type cell struct{ I, J int }
	c := cell{3, -4}
	data, err = Append(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := Decode[cell](data)
	if err != nil || gotC != c {
		t.Errorf("struct round trip: %v %v", gotC, err)
	}

	// Unencodable types must error, not corrupt.
	type hidden struct{ secret int } //nolint:unused
	if _, err := Append(nil, hidden{1}); err == nil {
		t.Error("expected error encoding struct with only unexported fields")
	}
}

func TestCanRoundTripIdentity(t *testing.T) {
	type flat struct {
		A int
		B string
		C [3]float64
	}
	type nested struct{ F flat }
	if err := CanRoundTripIdentity[int](); err != nil {
		t.Errorf("int: %v", err)
	}
	if err := CanRoundTripIdentity[string](); err != nil {
		t.Errorf("string: %v", err)
	}
	if err := CanRoundTripIdentity[flat](); err != nil {
		t.Errorf("flat struct: %v", err)
	}
	if err := CanRoundTripIdentity[nested](); err != nil {
		t.Errorf("nested struct: %v", err)
	}

	type withPtr struct{ P *int }
	type withIface struct{ X any }
	type deepPtr struct {
		N nested
		P [2]*string
	}
	if err := CanRoundTripIdentity[*int](); err == nil {
		t.Error("*int should be rejected")
	}
	if err := CanRoundTripIdentity[withPtr](); err == nil {
		t.Error("struct with pointer field should be rejected")
	}
	if err := CanRoundTripIdentity[withIface](); err == nil {
		t.Error("struct with interface field should be rejected")
	}
	if err := CanRoundTripIdentity[deepPtr](); err == nil {
		t.Error("deeply nested pointer array should be rejected")
	}
	if err := CanRoundTripIdentity[any](); err == nil {
		t.Error("interface type should be rejected")
	}

	// gob silently drops unexported fields, so keys differing only
	// there would collapse into one group after a spill round trip.
	type mixed struct {
		A int
		b int //nolint:unused
	}
	if err := CanRoundTripIdentity[mixed](); err == nil {
		t.Error("struct with unexported field should be rejected")
	}
}

func TestCanRoundTripFidelity(t *testing.T) {
	type ok struct {
		A    int
		B    []string
		C    *float64
		D    map[string][]int
		Next *ok // type recursion must not loop
	}
	if err := CanRoundTripFidelity[ok](); err != nil {
		t.Errorf("pointer/slice/map value type should pass fidelity: %v", err)
	}
	if err := CanRoundTripFidelity[[]byte](); err != nil {
		t.Errorf("[]byte: %v", err)
	}

	type lossy struct {
		Pub  int
		priv int //nolint:unused
	}
	if err := CanRoundTripFidelity[lossy](); err == nil {
		t.Error("unexported field should fail fidelity")
	}
	type nestedLossy struct{ L []lossy }
	if err := CanRoundTripFidelity[nestedLossy](); err == nil {
		t.Error("unexported field behind a slice should fail fidelity")
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	if _, err := Decode[int]([]byte{0x80}); err == nil {
		t.Error("dangling varint should fail")
	}
	if _, err := Decode[int]([]byte{1, 1}); err == nil {
		t.Error("trailing bytes after varint should fail")
	}
	if _, err := Decode[float64]([]byte{1, 2, 3}); err == nil {
		t.Error("short float64 should fail")
	}
	if _, err := Decode[bool]([]byte{}); err == nil {
		t.Error("empty bool should fail")
	}
	type cell struct{ I, J int }
	if _, err := Decode[cell]([]byte("not gob")); err == nil {
		t.Error("garbage gob should fail")
	}
}

// writeSample writes a fixed set of groups through w and returns them
// for comparison.
func writeSample(t *testing.T, w *Writer) []struct {
	key    string
	values []string
} {
	t.Helper()
	groups := []struct {
		key    string
		values []string
	}{
		{"alpha", []string{"1", "22", ""}},
		{"beta", nil},
		{"", []string{"only"}},
		{"gamma", []string{"x", "yy"}},
	}
	for _, g := range groups {
		vals := make([][]byte, len(g.values))
		for i, v := range g.values {
			vals[i] = []byte(v)
		}
		if err := w.WriteGroup([]byte(g.key), vals); err != nil {
			t.Fatal(err)
		}
	}
	return groups
}

// TestFooterIndexRoundTrip: a Finished v2 file carries a footer index
// that ReadIndex recovers without touching group bytes, ScanIndex
// reproduces from a sequential pass, and the streaming Reader ends
// cleanly at the footer marker.
func TestFooterIndexRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	groups := writeSample(t, w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if len(idx) != len(groups) {
		t.Fatalf("index has %d entries, want %d", len(idx), len(groups))
	}
	for i, g := range groups {
		e := idx[i]
		if string(e.Key) != g.key || e.Count != int64(len(g.values)) {
			t.Errorf("entry %d = (%q, %d), want (%q, %d)", i, e.Key, e.Count, g.key, len(g.values))
		}
		if e.Offset <= 0 || e.ValueBytes < 0 {
			t.Errorf("entry %d has bad geometry: offset %d valueBytes %d", i, e.Offset, e.ValueBytes)
		}
	}
	// Offsets must be strictly increasing and point at real groups: the
	// gap between consecutive offsets covers framing plus values.
	for i := 1; i < len(idx); i++ {
		if idx[i].Offset <= idx[i-1].Offset {
			t.Errorf("offsets not increasing: %d then %d", idx[i-1].Offset, idx[i].Offset)
		}
	}

	scanned, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ScanIndex: %v", err)
	}
	if !reflect.DeepEqual(scanned, idx) {
		t.Fatalf("ScanIndex diverges from footer:\nscan   %+v\nfooter %+v", scanned, idx)
	}
	if !reflect.DeepEqual(w.Index(), idx) {
		t.Fatal("Writer.Index diverges from the footer read back")
	}

	// The streaming reader sees exactly the groups, then io.EOF — the
	// footer is never surfaced.
	r := NewReader(bytes.NewReader(data))
	for gi, g := range groups {
		key, n, err := r.Next()
		if err != nil || string(key) != g.key || n != len(g.values) {
			t.Fatalf("group %d: %q %d %v", gi, key, n, err)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last group: err = %v, want io.EOF", err)
	}
}

// TestUnfinishedFileStreams: a writer that flushed its groups but never
// reached Finish (a crash before the footer) leaves a stream that still
// reads group by group to a clean io.EOF, has no index for ReadIndex
// (ErrNoIndex), and scans — directly or through LoadIndex's fallback —
// to exactly the index Finish would have written.
func TestUnfinishedFileStreams(t *testing.T) {
	var torn, whole bytes.Buffer
	w1 := NewWriter(&torn)
	writeSample(t, w1)
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(&whole)
	writeSample(t, w2)
	if err := w2.Finish(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(torn.Bytes()))
	key, n, err := r.Next()
	if err != nil || string(key) != "alpha" || n != 3 {
		t.Fatalf("first group: %q %d %v", key, n, err)
	}
	groups := 1
	for {
		if _, _, err = r.Next(); err != nil {
			break
		}
		groups++
	}
	if err != io.EOF || groups != 4 {
		t.Fatalf("unfinished stream: %d groups, final err %v", groups, err)
	}

	if _, err := ReadIndex(bytes.NewReader(torn.Bytes()), int64(torn.Len())); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("ReadIndex on unfinished file: err = %v, want ErrNoIndex", err)
	}
	scan, err := ScanIndex(bytes.NewReader(torn.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ReadIndex(bytes.NewReader(whole.Bytes()), int64(whole.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan, idx) {
		t.Fatalf("scan of unfinished file diverges from footer:\nscan   %+v\nfooter %+v", scan, idx)
	}
	if loaded, err := LoadIndex(bytes.NewReader(torn.Bytes()), int64(torn.Len())); err != nil || !reflect.DeepEqual(loaded, idx) {
		t.Fatalf("LoadIndex of unfinished file = %+v, %v; want the footer's index", loaded, err)
	}
}

// TestOtherFormatVersionsRejected: the header's version byte must be 2
// on every read path — the streaming Reader, the index scan, and the
// mapped image.
func TestOtherFormatVersionsRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	writeSample(t, w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 3} {
		data := append([]byte(nil), buf.Bytes()...)
		data[len(magicPrefix)] = v
		if _, _, err := NewReader(bytes.NewReader(data)).Next(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version %d: Reader err = %v, want ErrCorrupt", v, err)
		}
		if _, err := ScanIndex(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version %d: ScanIndex err = %v, want ErrCorrupt", v, err)
		}
		if _, err := NewGroupBatchMapped(data, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version %d: NewGroupBatchMapped err = %v, want ErrCorrupt", v, err)
		}
	}
}

// TestAppendRawBytesMovesGroups: the compaction fast path — a source
// group's raw value section appended to a new file with AppendRawBytes —
// round-trips values byte-identically, and the destination's footer
// geometry matches the source's.
func TestAppendRawBytesMovesGroups(t *testing.T) {
	var src bytes.Buffer
	w := NewWriter(&src)
	writeSample(t, w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	srcIdx := w.Index()

	var dst bytes.Buffer
	w2 := NewWriter(&dst)
	r := NewReader(bytes.NewReader(src.Bytes()))
	for i := 0; ; i++ {
		key, n, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.BeginGroup(key, n); err != nil {
			t.Fatal(err)
		}
		raw, err := r.RawValues(nil, srcIdx[i].ValueBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.AppendRawBytes(raw, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.Index(), srcIdx) {
		t.Fatalf("raw-copied index diverges:\ndst %+v\nsrc %+v", w2.Index(), srcIdx)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("raw-copied file differs from source bytes")
	}
}

// TestWriteAfterFinishFails: the footer closes the group section for
// good.
func TestWriteAfterFinishFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteGroup([]byte("k"), nil)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginGroup([]byte("late"), 0); err == nil {
		t.Fatal("BeginGroup after Finish succeeded")
	}
	// Finish is idempotent.
	if err := w.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
}

// TestReadIndexRejectsCorruption: damaged trailers and footers fail
// with typed errors, never a panic or a bad allocation.
func TestReadIndexRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	writeSample(t, w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadIndex(bytes.NewReader(good[:8]), 8); !errors.Is(err, ErrNoIndex) {
		t.Errorf("tiny file: err = %v, want ErrNoIndex", err)
	}
	noTrailer := good[:len(good)-trailerLen]
	if _, err := ReadIndex(bytes.NewReader(noTrailer), int64(len(noTrailer))); !errors.Is(err, ErrNoIndex) {
		t.Errorf("missing trailer: err = %v, want ErrNoIndex", err)
	}
	badOff := append([]byte(nil), good...)
	badOff[len(badOff)-trailerLen] = 0xff // footer offset points past the file
	badOff[len(badOff)-trailerLen+1] = 0xff
	badOff[len(badOff)-trailerLen+7] = 0x7f
	if _, err := ReadIndex(bytes.NewReader(badOff), int64(len(badOff))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad footer offset: err = %v, want ErrCorrupt", err)
	}
}
