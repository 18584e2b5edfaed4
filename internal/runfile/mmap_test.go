package runfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// writeTempRun writes groups through OSFS and returns the open file,
// its byte image, and the footer index.
func writeTempRun(t *testing.T, groups map[string][][]byte, order []string) (File, []byte, []IndexEntry) {
	t.Helper()
	data, idx := buildFile(t, groups, order)
	path := filepath.Join(t.TempDir(), "run")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OSFS.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, data, idx
}

var mmapGroups = map[string][][]byte{
	"a":    {[]byte("v1"), []byte(""), []byte("a long enough value to matter")},
	"bb":   {},
	"ccc":  {[]byte{0, 1, 2, 3, 255}},
	"dddd": {[]byte("x"), []byte("y"), []byte("z"), []byte("w")},
	"eee":  {bytes.Repeat([]byte("E"), 3000)},
}

var mmapOrder = []string{"a", "bb", "ccc", "dddd", "eee"}

// TestMapOSFile: OSFS files map, the mapping is byte-identical to the
// file, and survives closing the fd (the Mapper contract the shuffle's
// shared-handle cursors rely on).
func TestMapOSFile(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("no mmap on this platform") // mmap_stub.go's build
	}
	f, data, _ := writeTempRun(t, mmapGroups, mmapOrder)
	m, err := Map(f, int64(len(data)))
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !bytes.Equal(m, data) {
		t.Fatal("mapping diverges from file bytes")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m, data) {
		t.Fatal("mapping invalid after fd close")
	}
	if err := Unmap(f, m); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
}

// TestMapUnsupportedFile: a File without Mapper gets ErrNoMmap, the
// fallback-selecting sentinel.
func TestMapUnsupportedFile(t *testing.T) {
	if _, err := Map(plainFile{}, 10); !errors.Is(err, ErrNoMmap) {
		t.Fatalf("Map of unmappable file: err = %v, want ErrNoMmap", err)
	}
}

type plainFile struct{ File }

// TestGroupBatchMappedMatchesStreaming: the mapped iterator must yield
// exactly the streaming iterator's groups — keys and payloads — with
// and without the footer index, and its batches must be views (aliases
// of the image, not copies).
func TestGroupBatchMappedMatchesStreaming(t *testing.T) {
	data, idx := buildFile(t, mmapGroups, mmapOrder)

	type group struct {
		key  string
		vals [][]byte
	}
	collect := func(gb *GroupBatch) []group {
		t.Helper()
		var out []group
		for {
			k, vb, err := gb.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			g := group{key: string(k)}
			for i := 0; i < vb.Len(); i++ {
				g.vals = append(g.vals, append([]byte(nil), vb.Value(i)...))
			}
			out = append(out, g)
		}
		return out
	}
	want := collect(NewGroupBatch(bytes.NewReader(data), idx))

	for name, index := range map[string][]IndexEntry{"indexed": idx, "index-free": nil} {
		gb, err := NewGroupBatchMapped(data, index)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := collect(gb); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mapped read diverges\ngot  %v\nwant %v", name, got, want)
		}
	}

	// Aliasing: a nonempty payload from the mapped iterator shares
	// memory with the image.
	gb, err := NewGroupBatchMapped(data, idx)
	if err != nil {
		t.Fatal(err)
	}
	_, vb, err := gb.Next() // group "a"
	if err != nil {
		t.Fatal(err)
	}
	v := vb.Value(0)
	if len(v) == 0 {
		t.Fatal("expected nonempty first value")
	}
	found := false
	for i := range data {
		if &data[i] == &v[0] {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("mapped batch copied its payload; want a zero-copy view")
	}
}

// TestGroupBatchMappedIndexMismatch: the mapped iterator cross-checks
// the index like the streaming one.
func TestGroupBatchMappedIndexMismatch(t *testing.T) {
	data, idx := buildFile(t, mmapGroups, mmapOrder)
	short := idx[:len(idx)-1]
	gb, err := NewGroupBatchMapped(data, short)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err = gb.Next(); err != nil {
			break
		}
	}
	if err == io.EOF || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short index: err = %v, want ErrCorrupt", err)
	}

	bad := append([]IndexEntry(nil), idx...)
	bad[0].Count++
	gb, err = NewGroupBatchMapped(data, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err = gb.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count mismatch: err = %v, want ErrCorrupt", err)
	}
}

// TestSetViewZeroCopyAndReset: SetView aliases the section, rejects
// trailing bytes, and a subsequent owned-mode read must not grow into
// the viewed memory (the mapped page would be read-only in production).
func TestSetViewZeroCopyAndReset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	vals := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma")}
	if err := writeGroup(w, []byte("k"), vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	idx, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	e := idx[0]
	valStart := e.Offset + int64(1+1+1) // klen varint + key + count varint
	sec := buf.Bytes()[valStart : valStart+e.ValueBytes]

	var b ValueBatch
	if err := b.SetView(sec, int(e.Count)); err != nil {
		t.Fatalf("SetView: %v", err)
	}
	if b.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(vals))
	}
	for i, want := range vals {
		if !bytes.Equal(b.Value(i), want) {
			t.Fatalf("value %d = %q, want %q", i, b.Value(i), want)
		}
	}
	if got := b.Value(0); len(got) > 0 && &got[0] != &sec[1] {
		t.Fatal("SetView copied; want a view of sec")
	}
	if !bytes.Equal(b.Raw(), sec) {
		t.Fatal("Raw() of a view must be the section itself")
	}

	// Trailing bytes are corruption, and must not leave a stale view.
	if err := b.SetView(append(append([]byte(nil), sec...), 0), int(e.Count)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SetView with trailing byte: err = %v, want ErrCorrupt", err)
	}

	// Owned-mode read after a view: the arena must be fresh, not the
	// viewed memory.
	if err := b.SetView(sec, int(e.Count)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadValueBatch(&b, e.ValueBytes); err != nil {
		t.Fatal(err)
	}
	if len(b.arena) > 0 && &b.arena[0] == &sec[0] {
		t.Fatal("owned read reused viewed memory as its arena")
	}
	for i, want := range vals {
		if !bytes.Equal(b.Value(i), want) {
			t.Fatalf("owned reread value %d = %q, want %q", i, b.Value(i), want)
		}
	}
}

// TestReadSectionAt: the pread fallback yields the same section as the
// sequential indexed read, straight from a ReaderAt with no seek state,
// reusing the buffer it is handed.
func TestReadSectionAt(t *testing.T) {
	data, idx := buildFile(t, mmapGroups, mmapOrder)
	ra := bytes.NewReader(data)

	// Walk the file once sequentially to learn each value-section
	// offset, then re-read each section positioned.
	r := NewReader(bytes.NewReader(data))
	buf := make([]byte, 0, 64)
	for _, e := range idx {
		key, n, err := r.NextAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(key) != string(e.Key) {
			t.Fatalf("key %q, index says %q", key, e.Key)
		}
		var want ValueBatch
		if err := r.ReadValueBatch(&want, e.ValueBytes); err != nil {
			t.Fatal(err)
		}
		secOff := r.pos - e.ValueBytes
		sec, err := ReadSectionAt(ra, secOff, e.ValueBytes, buf)
		if err != nil {
			t.Fatalf("ReadSectionAt(%q): %v", e.Key, err)
		}
		if len(sec) > 0 && cap(buf) >= len(sec) && &sec[0] != &buf[:1][0] {
			t.Fatalf("%q: ReadSectionAt did not reuse a large enough buffer", e.Key)
		}
		buf = sec
		var got ValueBatch
		if err := got.SetView(sec, n); err != nil {
			t.Fatalf("SetView(%q): %v", e.Key, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%q: Len %d, want %d", e.Key, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !bytes.Equal(got.Value(i), want.Value(i)) {
				t.Fatalf("%q value %d: %q, want %q", e.Key, i, got.Value(i), want.Value(i))
			}
		}
	}

	// Short section: loud, not silent.
	if _, err := ReadSectionAt(ra, int64(len(data))-2, 10, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSectionAt past EOF: err = %v, want ErrCorrupt", err)
	}
}

// TestWriterReset: one Writer produces multiple self-contained files.
func TestWriterReset(t *testing.T) {
	var a, b bytes.Buffer
	w := NewWriter(&a)
	if err := writeGroup(w, []byte("k1"), [][]byte{[]byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	w.Reset(&b)
	if err := writeGroup(w, []byte("k2"), [][]byte{[]byte("v2"), []byte("v3")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.Pairs() != 2 {
		t.Fatalf("Pairs after Reset = %d, want 2", w.Pairs())
	}
	for name, img := range map[string]*bytes.Buffer{"first": &a, "second": &b} {
		idx, err := ReadIndex(bytes.NewReader(img.Bytes()), int64(img.Len()))
		if err != nil {
			t.Fatalf("%s file: ReadIndex: %v", name, err)
		}
		if len(idx) != 1 {
			t.Fatalf("%s file: %d groups, want 1", name, len(idx))
		}
	}
}
