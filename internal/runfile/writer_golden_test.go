package runfile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errfs"
	"repro/internal/runfile"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests run from the current code")

// writerCases are the byte shapes the writer must keep: each writes one
// run to out and returns the writer that wrote it. The golden holds
// every case's bytes in hex, except that a case longer than
// goldenHexMax is pinned by its length and SHA-256 alone.
var writerCases = []struct {
	name string
	run  func(out io.Writer) (*runfile.Writer, error)
}{
	{"empty-run", func(out io.Writer) (*runfile.Writer, error) {
		w := runfile.NewWriter(out)
		return w, w.Finish()
	}},
	{"groups-footer", func(out io.Writer) (*runfile.Writer, error) {
		w := runfile.NewWriter(out)
		if err := writeSmallGroups(w); err != nil {
			return w, err
		}
		return w, w.Finish()
	}},
	{"groups-footerless", func(out io.Writer) (*runfile.Writer, error) {
		w := runfile.NewWriter(out)
		if err := writeSmallGroups(w); err != nil {
			return w, err
		}
		return w, w.Flush()
	}},
	{"long-values", func(out io.Writer) (*runfile.Writer, error) {
		w := runfile.NewWriter(out)
		long := bytes.Repeat([]byte("0123456789abcdef"), 70000/16)
		long[len(long)-1] = 'z'
		if err := w.BeginGroup([]byte("k1"), 2); err != nil {
			return w, err
		}
		if err := w.AppendValue([]byte("short")); err != nil {
			return w, err
		}
		if err := w.AppendValue(long); err != nil {
			return w, err
		}
		// A raw section longer than any write buffer.
		raw := append(binary.AppendUvarint(nil, uint64(len(long))), long...)
		raw = append(binary.AppendUvarint(raw, 3), "end"...)
		if err := w.BeginGroup([]byte("k2"), 2); err != nil {
			return w, err
		}
		if err := w.AppendRawBytes(raw, 2); err != nil {
			return w, err
		}
		return w, w.Finish()
	}},
	{"reset", func(out io.Writer) (*runfile.Writer, error) {
		// A reused writer (the spool's) starts every run afresh: the
		// first run's bytes went to another file.
		w := runfile.NewWriter(new(bytes.Buffer))
		if err := writeSmallGroups(w); err != nil {
			return w, err
		}
		w.Reset(out)
		if err := w.BeginGroup([]byte("after-reset"), 1); err != nil {
			return w, err
		}
		if err := w.AppendValue([]byte("v")); err != nil {
			return w, err
		}
		return w, w.Finish()
	}},
}

const goldenHexMax = 1 << 10

// writeSmallGroups writes an empty key, a multi-value group, a key
// sharing a prefix with the one before it (the footer's common-prefix
// compression), an empty group and a raw section.
func writeSmallGroups(w *runfile.Writer) error {
	groups := []struct {
		key  string
		vals []string
	}{
		{"", []string{"e0", ""}},
		{"apple", []string{"red", "green", "x"}},
		{"applesauce", []string{"jar"}},
		{"b", nil},
	}
	for _, g := range groups {
		if err := w.BeginGroup([]byte(g.key), len(g.vals)); err != nil {
			return err
		}
		for _, v := range g.vals {
			if err := w.AppendValue([]byte(v)); err != nil {
				return err
			}
		}
	}
	if err := w.BeginGroup([]byte("c"), 2); err != nil {
		return err
	}
	raw := append(binary.AppendUvarint(nil, 2), "v1"...)
	return w.AppendRawBytes(binary.AppendUvarint(raw, 0), 2)
}

// TestWriterGolden pins the writer's file bytes, case by case, against
// testdata/writer.golden (go test -run TestWriterGolden -update
// rewrites it), and checks each run's index against the sequential
// scan of its bytes.
func TestWriterGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range writerCases {
		var buf bytes.Buffer
		w, err := tc.run(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data := buf.Bytes()
		if w.BytesWritten() != int64(len(data)) {
			t.Errorf("%s: BytesWritten %d, file holds %d", tc.name, w.BytesWritten(), len(data))
		}
		scanned, err := runfile.ScanIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ScanIndex: %v", tc.name, err)
		}
		if idx := w.Index(); fmt.Sprint(idx) != fmt.Sprint(scanned) {
			t.Errorf("%s: writer index %v, scanned %v", tc.name, idx, scanned)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&got, "%s %d %x\n", tc.name, len(data), sum)
		if len(data) <= goldenHexMax {
			for b := data; len(b) > 0; b = b[min(32, len(b)):] {
				fmt.Fprintf(&got, "\t%s\n", hex.EncodeToString(b[:min(32, len(b))]))
			}
		}
	}
	path := filepath.Join("testdata", "writer.golden")
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
		t.Errorf("writer bytes differ from %s (rerun with -update after an intended format change):\n%s", path, got.String())
	}
}

// TestWriterWriteFailureLatches: a write that fails mid-run (here the
// first flush of the writer's buffer) surfaces from the call that hit
// it or the next one, from every call after, and from Finish.
func TestWriterWriteFailureLatches(t *testing.T) {
	fs := errfs.New(nil)
	f, err := fs.CreateTemp(t.TempDir(), "w-*.run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fs.FailAt(errfs.OpWrite, 1, nil)
	w := runfile.NewWriter(f)
	val := bytes.Repeat([]byte{'v'}, 1000)
	var first error
	for g := 0; g < 200 && first == nil; g++ {
		if first = w.BeginGroup([]byte(fmt.Sprintf("k%04d", g)), 1); first == nil {
			first = w.AppendValue(val)
		}
	}
	if !errors.Is(first, errfs.ErrInjected) {
		t.Fatalf("200 KB of groups: first error %v, want the injected write failure", first)
	}
	if err := w.BeginGroup([]byte("next"), 1); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("BeginGroup after the failure: %v, want the injected error", err)
	}
	if err := w.AppendRawBytes([]byte{1, 'x'}, 1); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("AppendRawBytes after the failure: %v, want the injected error", err)
	}
	if err := w.Finish(); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("Finish after the failure: %v, want the injected error", err)
	}
	if err := w.Err(); !errors.Is(err, errfs.ErrInjected) {
		t.Errorf("Err after the failure: %v, want the injected error", err)
	}
}
