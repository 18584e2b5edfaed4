package runfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// FuzzRunfileCodec exercises the run-file format from both sides: a
// write-read round trip of fuzzer-chosen groups must reproduce the
// input exactly, and feeding the raw fuzz input directly to the Reader
// must either parse cleanly or fail with ErrCorrupt — never panic and
// never allocate beyond the length cap.
func FuzzRunfileCodec(f *testing.F) {
	f.Add([]byte("key"), []byte("v1"), []byte("v2"), uint8(2))
	f.Add([]byte(""), []byte(""), []byte{0xff, 0x00}, uint8(7))
	f.Add([]byte{'M', 'R', 'R', 'F', 1}, []byte("x"), []byte("y"), uint8(1))
	f.Add([]byte{1, 'a', 2, 0, 0, 0}, []byte{1, 'b'}, []byte{0x80, 0}, uint8(4))

	f.Fuzz(func(t *testing.T, key, v1, v2 []byte, n uint8) {
		// Side 1: round trip. Build up to n copies of the two values.
		values := make([][]byte, 0, int(n%8))
		for i := 0; i < int(n%8); i++ {
			if i%2 == 0 {
				values = append(values, v1)
			} else {
				values = append(values, v2)
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := writeGroup(w, key, values); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := writeGroup(w, v1, [][]byte{key}); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}

		r := NewReader(bytes.NewReader(buf.Bytes()))
		gotKey, gotN, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !bytes.Equal(gotKey, key) || gotN != len(values) {
			t.Fatalf("group 1: key %q n %d, want %q %d", gotKey, gotN, key, len(values))
		}
		for i, want := range values {
			got, err := r.Value()
			if err != nil {
				t.Fatalf("Value %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("value %d = %q, want %q", i, got, want)
			}
		}
		gotKey, gotN, err = r.Next()
		if err != nil || !bytes.Equal(gotKey, v1) || gotN != 1 {
			t.Fatalf("group 2: %q %d %v", gotKey, gotN, err)
		}
		if _, err := r.Value(); err != nil {
			t.Fatalf("group 2 value: %v", err)
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("tail: err = %v, want io.EOF", err)
		}

		// Side 1b: the footer index. A Finished copy of the same groups
		// must yield an identical group stream that ends before the
		// footer, and ReadIndex/ScanIndex must agree on the geometry.
		var fbuf bytes.Buffer
		fw := NewWriter(&fbuf)
		if err := writeGroup(fw, key, values); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := writeGroup(fw, v1, [][]byte{key}); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := fw.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		fdata := fbuf.Bytes()
		idx, err := ReadIndex(bytes.NewReader(fdata), int64(len(fdata)))
		if err != nil {
			t.Fatalf("ReadIndex: %v", err)
		}
		if len(idx) != 2 || !bytes.Equal(idx[0].Key, key) || idx[0].Count != int64(len(values)) ||
			!bytes.Equal(idx[1].Key, v1) || idx[1].Count != 1 {
			t.Fatalf("footer index %+v does not describe the written groups", idx)
		}
		scanned, err := ScanIndex(bytes.NewReader(fdata))
		if err != nil {
			t.Fatalf("ScanIndex: %v", err)
		}
		if len(scanned) != len(idx) {
			t.Fatalf("ScanIndex found %d entries, footer has %d", len(scanned), len(idx))
		}
		for i := range idx {
			if !bytes.Equal(scanned[i].Key, idx[i].Key) || scanned[i].Count != idx[i].Count ||
				scanned[i].Offset != idx[i].Offset || scanned[i].ValueBytes != idx[i].ValueBytes {
				t.Fatalf("entry %d: scan %+v != footer %+v", i, scanned[i], idx[i])
			}
		}
		fr := NewReader(bytes.NewReader(fdata))
		for g := 0; g < 2; g++ {
			if _, _, err := fr.Next(); err != nil {
				t.Fatalf("finished file group %d: %v", g, err)
			}
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("finished file tail: err = %v, want io.EOF (footer must not surface)", err)
		}

		// Side 2: the reader — and both index loaders — must survive
		// arbitrary bytes without panicking or allocating past the cap.
		raw := append(append([]byte{}, key...), v1...)
		rr := NewReader(bytes.NewReader(raw))
		for {
			_, _, err := rr.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("arbitrary input: unexpected error class %v", err)
				}
				break
			}
			if err := rr.SkipValues(); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("arbitrary input skip: %v", err)
				}
				break
			}
		}
		if _, err := ReadIndex(bytes.NewReader(raw), int64(len(raw))); err != nil &&
			!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoIndex) {
			t.Fatalf("ReadIndex on arbitrary input: unexpected error class %v", err)
		}
		if _, err := ScanIndex(bytes.NewReader(raw)); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ScanIndex on arbitrary input: unexpected error class %v", err)
		}
		// Truncations of a valid indexed file must also fail cleanly.
		if n > 0 {
			cut := fdata[:int(n)%len(fdata)]
			if _, err := ReadIndex(bytes.NewReader(cut), int64(len(cut))); err != nil &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoIndex) {
				t.Fatalf("ReadIndex on truncated file: unexpected error class %v", err)
			}
		}

		// Side 3: the typed codec round-trips the fuzzed bytes as both
		// string and []byte payloads.
		// (FuzzValueBatch covers the batch read path over the same
		// geometry.)
		sdata, err := Append(nil, string(key))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode[string](sdata)
		if err != nil || s != string(key) {
			t.Fatalf("string codec: %q %v", s, err)
		}
		bdata, err := Append(nil, v1)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := Decode[[]byte](bdata)
		if err != nil || !bytes.Equal(bv, v1) {
			t.Fatalf("[]byte codec: %q %v", bv, err)
		}

		// Side 4: plans with string parts. Values built from the fuzzed
		// bytes round-trip, and every prefix of the arbitrary bytes
		// (its tail still in the slice's capacity) decodes to an error
		// or to a value that re-encodes to exactly that prefix — so no
		// decode panics, reads past its frame, or accepts two encodings
		// of one value.
		checkPlanRT(t, fuzzTwo{A: string(key), N: int32(n) - 100, B: string(v2)})
		checkPlanRT(t, fuzzHidden{K: uint16(len(v1)), s: string(v1), F: float64(n) / 3})
		checkPlanRT(t, fuzzArr{Xs: [3]string{string(v2), "", string(key)}, On: n%2 == 1})
		for i := 0; i <= len(raw); i++ {
			checkPlanBytes[fuzzTwo](t, raw[:i])
			checkPlanBytes[fuzzHidden](t, raw[:i])
			checkPlanBytes[fuzzArr](t, raw[:i])
		}
	})
}

// The string-bearing plans FuzzRunfileCodec drives: two strings, an
// unexported one, and an array of strings beside a bool.
type (
	fuzzTwo struct {
		A string
		N int32
		B string
	}
	fuzzHidden struct {
		K uint16
		s string
		F float64
	}
	fuzzArr struct {
		Xs [3]string
		On bool
	}
)

func checkPlanRT[T comparable](t *testing.T, v T) {
	t.Helper()
	data, err := Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%+v): %v", v, err)
	}
	if got, err := Decode[T](data); err != nil || got != v {
		t.Fatalf("round trip of %+v = %+v (%v)", v, got, err)
	}
}

func checkPlanBytes[T any](t *testing.T, data []byte) {
	t.Helper()
	v, err := Decode[T](data)
	if err != nil {
		return
	}
	again, err := Append(nil, v)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("% x decoded to %+v, which re-encodes to % x (%v)", data, v, again, err)
	}
}

// FuzzValueBatch pits the batch read path against the per-value
// Reader: for fuzzer-chosen v2 run files the two must agree
// byte-for-byte on every key and payload (with the footer index driving
// the batch reads, and without it), and arbitrary input bytes must fail
// with ErrCorrupt or clean EOF — never panic. The fuzzed bytes are also
// hostile value sections for the one-walk decode (checkDecodeSection).
func FuzzValueBatch(f *testing.F) {
	f.Add([]byte("key"), []byte("v1"), []byte("v2"), uint8(3))
	f.Add([]byte(""), []byte(""), []byte{0xff, 0x00}, uint8(0))
	f.Add([]byte{'M', 'R', 'R', 'F', 2}, []byte("x"), bytes.Repeat([]byte("y"), 300), uint8(9))
	// v2 as a section: two uint64 frames, one fuzzFixed frame.
	f.Add([]byte{}, []byte{}, []byte{1, 7, 2, 0x80, 1}, uint8(2))
	f.Add([]byte{}, []byte{}, []byte{7, 0xfe, 0xff, 1, 0, 0, 0x80, 0x3f}, uint8(1))
	// v2 as one fuzzImage frame whose length 16 is overlong (two bytes):
	// the copy path declines it and the walk decodes it.
	f.Add([]byte{}, []byte{}, append([]byte{0x90, 0x00}, bytes.Repeat([]byte{0xa5}, 16)...), uint8(1))

	f.Fuzz(func(t *testing.T, key, v1, v2 []byte, n uint8) {
		// Build a v2 file: a group of n%8 alternating values, a group
		// with zero values, and a single-value group.
		values := make([][]byte, 0, int(n%8))
		for i := 0; i < int(n%8); i++ {
			if i%2 == 0 {
				values = append(values, v1)
			} else {
				values = append(values, v2)
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := writeGroup(w, key, values); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := writeGroup(w, append(append([]byte(nil), key...), '0'), nil); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := writeGroup(w, append(append([]byte(nil), key...), '1'), [][]byte{v2}); err != nil {
			t.Fatalf("writeGroup: %v", err)
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		data := buf.Bytes()
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("ReadIndex: %v", err)
		}

		// Reference: the per-value reader.
		var wantKeys [][]byte
		var wantVals [][][]byte
		r := NewReader(bytes.NewReader(data))
		for {
			k, cnt, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			wantKeys = append(wantKeys, append([]byte(nil), k...))
			var vs [][]byte
			for i := 0; i < cnt; i++ {
				v, err := r.Value()
				if err != nil {
					t.Fatalf("Value: %v", err)
				}
				vs = append(vs, v)
			}
			wantVals = append(wantVals, vs)
		}

		for _, index := range [][]IndexEntry{idx, nil} {
			gb := NewGroupBatch(bytes.NewReader(data), index)
			for g := 0; ; g++ {
				k, vb, err := gb.Next()
				if err == io.EOF {
					if g != len(wantKeys) {
						t.Fatalf("batch read ended after %d groups, want %d", g, len(wantKeys))
					}
					break
				}
				if err != nil {
					t.Fatalf("batch Next: %v", err)
				}
				if g >= len(wantKeys) || !bytes.Equal(k, wantKeys[g]) {
					t.Fatalf("batch group %d key %q diverges", g, k)
				}
				if vb.Len() != len(wantVals[g]) {
					t.Fatalf("batch group %d has %d values, want %d", g, vb.Len(), len(wantVals[g]))
				}
				for i := range wantVals[g] {
					if !bytes.Equal(vb.Value(i), wantVals[g][i]) {
						t.Fatalf("batch group %d value %d = %q, want %q", g, i, vb.Value(i), wantVals[g][i])
					}
				}
			}
		}

		// Arbitrary bytes must fail cleanly through the batch reader.
		raw := append(append([]byte{}, key...), v1...)
		for _, sec := range [][]byte{raw, v2} {
			checkDecodeSection[uint64](t, sec, int(n%16))
			checkDecodeSection[fuzzFixed](t, sec, int(n%16))
			checkDecodeSection[fuzzTwo](t, sec, int(n%16))
			checkDecodeSection[fuzzImage](t, sec, int(n%16))
		}
		gb := NewGroupBatch(bytes.NewReader(raw), nil)
		for {
			_, _, err := gb.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("arbitrary input: unexpected error class %v", err)
				}
				break
			}
		}
		// Truncations of the valid file too.
		if len(data) > 0 {
			cut := data[:int(n)%len(data)]
			gb := NewGroupBatch(bytes.NewReader(cut), nil)
			for {
				_, _, err := gb.Next()
				if err != nil {
					if err != io.EOF && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("truncated input: unexpected error class %v", err)
					}
					break
				}
			}
		}
	})
}

// fuzzFixed is a plan with one wire size and a bool part.
type fuzzFixed struct {
	A  int16
	On bool
	X  float32
}

// fuzzImage is a plan whose wire form is its memory image: its codec
// copies canonical sections instead of walking them.
type fuzzImage struct {
	A int32
	B uint32
	X float64
}

// checkDecodeSection hands sec to T's one-walk DecodeSection as n
// values and holds it to the separate walks: SetView frames sec, then
// Decode reads each payload. Both fail or neither does, with the same
// values; on a section whose framing holds, the first payload Decode
// rejects is the one-walk's error too. A framing fault wraps ErrCorrupt.
func checkDecodeSection[T any](t *testing.T, sec []byte, n int) {
	t.Helper()
	got, err := CodecFor[T]().DecodeSection(sec, n, nil)
	var b ValueBatch
	frameErr := b.SetView(sec, n)
	var want []T
	var decodeErr error
	for i := 0; frameErr == nil && i < b.Len(); i++ {
		v, err := Decode[T](b.Value(i))
		if err != nil {
			decodeErr = err
			break
		}
		want = append(want, v)
	}
	// Values compare by their bytes: a NaN is not == to itself.
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		a, _ := Append(nil, got[i])
		b, _ := Append(nil, want[i])
		same = bytes.Equal(a, b)
	}
	switch {
	case frameErr != nil && err == nil:
		t.Fatalf("DecodeSection[%T](% x, %d) = %v, SetView: %v", *new(T), sec, n, got, frameErr)
	case frameErr != nil && !errors.Is(frameErr, ErrCorrupt):
		t.Fatalf("SetView(% x, %d): %v does not wrap ErrCorrupt", sec, n, frameErr)
	case decodeErr != nil && fmt.Sprint(err) != decodeErr.Error():
		t.Fatalf("DecodeSection[%T](% x, %d) err = %v, Decode: %v", *new(T), sec, n, err, decodeErr)
	case frameErr == nil && decodeErr == nil && (err != nil || !same):
		t.Fatalf("DecodeSection[%T](% x, %d) = %v (%v), SetView+Decode = %v", *new(T), sec, n, got, err, want)
	}
}
