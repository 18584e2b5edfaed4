package runfile_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runfile"
)

// codecLine encodes v with runfile.Append, checks that runfile.Decode
// reads the bytes back to v (NaN payloads and -0 included: the decoded
// value must re-encode to the same bytes and print the same) and
// writes one golden line, the case's name and its bytes in hex.
func codecLine[T any](t *testing.T, out *strings.Builder, name string, v T) {
	t.Helper()
	data, err := runfile.Append(nil, v)
	if err != nil {
		t.Fatalf("%s: Append: %v", name, err)
	}
	got, err := runfile.Decode[T](data)
	if err != nil {
		t.Fatalf("%s: Decode(% x): %v", name, data, err)
	}
	again, err := runfile.Append(nil, got)
	if err != nil || !bytes.Equal(again, data) || fmt.Sprint(got) != fmt.Sprint(v) {
		t.Errorf("%s: Decode(% x) = %v (re-encoded % x, %v), want %v", name, data, got, again, err, v)
	}
	fmt.Fprintf(out, "%s [%s]\n", name, hex.EncodeToString(data))
}

// codecSigned adds a signed kind's 0, -1, min and max.
func codecSigned[T int | int8 | int16 | int32 | int64](t *testing.T, out *strings.Builder, kind string, lo, hi T) {
	for _, c := range []struct {
		name string
		v    T
	}{{"0", 0}, {"-1", -1}, {"min", lo}, {"max", hi}} {
		codecLine(t, out, kind+"/"+c.name, c.v)
	}
}

// codecUnsigned adds an unsigned kind's 0, 1 and max (its min is 0).
func codecUnsigned[T uint | uint8 | uint16 | uint32 | uint64 | uintptr](t *testing.T, out *strings.Builder, kind string, hi T) {
	for _, c := range []struct {
		name string
		v    T
	}{{"0", 0}, {"1", 1}, {"max", hi}} {
		codecLine(t, out, kind+"/"+c.name, c.v)
	}
}

// codecFloat adds a float kind's 0, -1, min and max, and its -0, ±Inf
// and a NaN with a payload.
func codecFloat[T float32 | float64](t *testing.T, out *strings.Builder, kind string, hi, nan T) {
	for _, c := range []struct {
		name string
		v    T
	}{
		{"0", 0}, {"-1", -1}, {"min", -hi}, {"max", hi},
		{"-0", T(math.Copysign(0, -1))}, {"+inf", T(math.Inf(1))}, {"-inf", T(math.Inf(-1))}, {"nan-payload", nan},
	} {
		codecLine(t, out, kind+"/"+c.name, c.v)
	}
}

// TestCodecGolden pins Append's bytes for every unnamed scalar kind at
// its edges, strings and byte slices, named scalars (plan-coded, so a
// named int is 8 little-endian bytes where an int is a varint) and
// composite plans, against testdata/codec.golden (go test -run
// TestCodecGolden -update rewrites it, only after an intended format
// change), and checks that Decode reads every case back.
func TestCodecGolden(t *testing.T) {
	var got strings.Builder
	codecSigned(t, &got, "int", math.MinInt, math.MaxInt)
	codecSigned(t, &got, "int8", math.MinInt8, math.MaxInt8)
	codecSigned(t, &got, "int16", math.MinInt16, math.MaxInt16)
	codecSigned(t, &got, "int32", math.MinInt32, math.MaxInt32)
	codecSigned(t, &got, "int64", math.MinInt64, math.MaxInt64)
	codecUnsigned(t, &got, "uint", uint(math.MaxUint))
	codecUnsigned(t, &got, "uint8", uint8(math.MaxUint8))
	codecUnsigned(t, &got, "uint16", uint16(math.MaxUint16))
	codecUnsigned(t, &got, "uint32", uint32(math.MaxUint32))
	codecUnsigned(t, &got, "uint64", uint64(math.MaxUint64))
	codecUnsigned(t, &got, "uintptr", ^uintptr(0))
	codecFloat(t, &got, "float32", math.MaxFloat32, math.Float32frombits(0x7fc0_1234))
	codecFloat(t, &got, "float64", math.MaxFloat64, math.Float64frombits(0x7ff8_0000_dead_beef))
	codecLine(t, &got, "bool/false", false)
	codecLine(t, &got, "bool/true", true)
	codecLine(t, &got, "string/empty", "")
	codecLine(t, &got, "string/utf8", "héllo, 世界")
	codecLine(t, &got, "string/invalid-utf8", "\xff\xfe\xc3")
	codecLine(t, &got, "bytes/nil", []byte(nil))
	codecLine(t, &got, "bytes/empty", []byte{})
	codecLine(t, &got, "bytes/some", []byte{0, 1, 0x7f, 0x80, 0xff})

	type namedInt int
	type namedString string
	codecLine(t, &got, "named-int/5", namedInt(5))
	codecLine(t, &got, "named-int/-1", namedInt(-1))
	codecLine(t, &got, "named-string/ab", namedString("ab"))
	codecLine(t, &got, "named-string/empty", namedString(""))

	codecLine(t, &got, "complex64", complex64(complex(1.5, -2)))
	codecLine(t, &got, "complex128", complex(math.Inf(-1), 0.25))
	type inner struct {
		X int8
		Y [2]uint16
	}
	type nestedArray struct {
		A [2]inner
		B float32
		C bool
	}
	codecLine(t, &got, "struct/nested-array", nestedArray{A: [2]inner{{-1, [2]uint16{1, 0xffff}}, {127, [2]uint16{256, 0}}}, B: -0.5, C: true})
	type withString struct {
		A int8
		S string
		N uint32
	}
	codecLine(t, &got, "struct/string-part", withString{A: -1, S: "ab", N: 7})
	codecLine(t, &got, "struct/string-part-empty", withString{})
	// The Hamming Splitting reducer's key (internal/hamming).
	type splitKey struct {
		Group int
		Rest  uint64
	}
	codecLine(t, &got, "struct/hamming-split-key", splitKey{Group: 3, Rest: 0xdead_beef})

	path := filepath.Join("testdata", "codec.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("codec bytes differ from %s (rerun with -update after an intended format change):\n%s", path, got.String())
	}
}
