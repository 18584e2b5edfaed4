package runfile_test

// The errfs-backed LoadIndex test lives in an external test package:
// errfs itself imports runfile, so wiring the two together inside
// package runfile would be an import cycle.

import (
	"bytes"
	"testing"

	"repro/internal/errfs"
	"repro/internal/runfile"
)

// TestLoadIndexErrfsReadAtFailure: a failing random-access read (bad
// sector under the trailer) must degrade to the sequential scan, not
// fail the caller — the first step of the crash-consistency story on
// the real FS seam.
func TestLoadIndexErrfsReadAtFailure(t *testing.T) {
	var buf bytes.Buffer
	w := runfile.NewWriter(&buf)
	for _, g := range []string{"a", "b", "c"} {
		if err := w.BeginGroup([]byte(g), 1); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendValue([]byte("v-" + g)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := runfile.ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	fs := errfs.New(nil)
	f, err := fs.CreateTemp(t.TempDir(), "mr-spill-*.run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	fs.FailAt(errfs.OpReadAt, 1, nil) // the trailer read
	idx, err := runfile.LoadIndex(rf, int64(len(data)))
	if err != nil {
		t.Fatalf("LoadIndex with failing ReadAt: %v", err)
	}
	if len(idx) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(idx), len(want))
	}
	for i := range idx {
		if !bytes.Equal(idx[i].Key, want[i].Key) || idx[i].Count != want[i].Count {
			t.Fatalf("entry %d = %+v, want %+v", i, idx[i], want[i])
		}
	}
}
