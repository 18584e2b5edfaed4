package proc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errfs"
	"repro/internal/runfile"
)

// buildSection writes one real committed section (three groups, six
// pairs) into a spool file under dir and returns it.
func buildSection(t *testing.T, dir string) Section {
	t.Helper()
	ss := newSpoolSet(dir, "w0")
	defer ss.closeAll()
	sec, err := ss.appendSection(0, 0, 0, 0, func(w *runfile.Writer) error {
		groups := []struct {
			key  string
			vals []string
		}{
			{"alpha", []string{"1", "22", "333"}},
			{"alps", []string{"4444"}},
			{"beta", []string{"5", "6"}},
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

func TestValidateSectionClean(t *testing.T) {
	dir := t.TempDir()
	sec := buildSection(t, dir)
	if sec.Pairs != 6 || sec.Groups != 3 {
		t.Fatalf("section profile = %d pairs / %d groups, want 6/3", sec.Pairs, sec.Groups)
	}
	if sec.DataBytes+sec.IndexBytes != sec.Length {
		t.Fatalf("DataBytes(%d)+IndexBytes(%d) != Length(%d)", sec.DataBytes, sec.IndexBytes, sec.Length)
	}
	if err := validateSection(runfile.OSFS, sec); err != nil {
		t.Fatalf("clean section failed validation: %v", err)
	}
}

// TestValidateSectionAppended: a second section appended to the same
// spool file validates independently at its own offset — the fencing
// that makes per-partition spool files shareable across tasks.
func TestValidateSectionAppended(t *testing.T) {
	dir := t.TempDir()
	first := buildSection(t, dir)
	ss := newSpoolSet(dir, "w0")
	defer ss.closeAll()
	second, err := ss.appendSection(1, 0, 0, 0, func(w *runfile.Writer) error {
		if err := w.BeginGroup([]byte("gamma"), 1); err != nil {
			return err
		}
		return w.AppendValue([]byte("7"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Offset != first.Length {
		t.Fatalf("second section offset = %d, want %d (appended after first)", second.Offset, first.Length)
	}
	for _, sec := range []Section{first, second} {
		if err := validateSection(runfile.OSFS, sec); err != nil {
			t.Fatalf("section at %d failed validation: %v", sec.Offset, err)
		}
	}
}

// TestAppendSectionAfterFailedWrite is the regression test for the stale
// spool offset: a section whose callback fails after the writer already
// flushed part of it into the O_APPEND spool must not leave the next
// section of that spool recorded short of where its bytes really are.
func TestAppendSectionAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	ss := newSpoolSet(dir, "w0")
	defer ss.closeAll()
	boom := errors.New("encode failed mid-section")
	_, err := ss.appendSection(0, 0, 0, 0, func(w *runfile.Writer) error {
		if err := w.BeginGroup([]byte("big"), 1); err != nil {
			return err
		}
		// Twice the writer's buffer: most of it reaches the file.
		if err := w.AppendValue(make([]byte, 128<<10)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed section returned %v, want the callback's error", err)
	}
	sec, err := ss.appendSection(1, 0, 0, 0, func(w *runfile.Writer) error {
		if err := w.BeginGroup([]byte("k"), 1); err != nil {
			return err
		}
		return w.AppendValue([]byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(sec.Path)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Offset == 0 || sec.Offset+sec.Length != st.Size() {
		t.Fatalf("section recorded at [%d,%d) of a %d-byte spool: it must end where the file ends, after the failed section's debris",
			sec.Offset, sec.Offset+sec.Length, st.Size())
	}
	if err := validateSection(runfile.OSFS, sec); err != nil {
		t.Fatalf("section after a failed write does not load at its recorded range: %v", err)
	}
}

// TestValidateSectionTornFooterRecovers: a crash that tears only the
// section's trailer (body and footer-marker intact) must still
// validate — LoadIndex falls back to the sequential scan and the
// recovered counts match the manifest.
func TestValidateSectionTornFooterRecovers(t *testing.T) {
	dir := t.TempDir()
	sec := buildSection(t, dir)
	// Garble the trailer magic in place (the torn-write shape: bytes
	// present but wrong).
	f, err := os.OpenFile(sec.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, sec.Offset+sec.Length-4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := validateSection(runfile.OSFS, sec); err != nil {
		t.Fatalf("torn trailer not recovered: %v", err)
	}
}

// TestValidateSectionTruncatedFails: a section whose bytes never fully
// reached the file (crash mid-body) must be rejected, not half-read.
func TestValidateSectionTruncatedFails(t *testing.T) {
	dir := t.TempDir()
	sec := buildSection(t, dir)
	// Cut inside the group section (DataBytes spans header + groups), so
	// some committed pairs are genuinely gone — unlike a footer-only cut,
	// which the scan fallback correctly recovers.
	if err := os.Truncate(sec.Path, sec.Offset+sec.DataBytes-3); err != nil {
		t.Fatal(err)
	}
	if err := validateSection(runfile.OSFS, sec); err == nil {
		t.Fatal("validateSection accepted a truncated section")
	}
}

// TestValidateSectionCountMismatchFails: a structurally readable
// section that does not carry what the manifest committed (paired
// manifest/spool from different attempts) must be rejected.
func TestValidateSectionCountMismatchFails(t *testing.T) {
	dir := t.TempDir()
	sec := buildSection(t, dir)
	lie := sec
	lie.Pairs += 2
	if err := validateSection(runfile.OSFS, lie); err == nil {
		t.Fatal("validateSection accepted a section with mismatched pair counts")
	}
	lie = sec
	lie.Groups--
	if err := validateSection(runfile.OSFS, lie); err == nil {
		t.Fatal("validateSection accepted a section with mismatched group counts")
	}
}

func TestManifestReplay(t *testing.T) {
	dir := t.TempDir()
	m, err := openManifest(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	e0 := manifestEntry{Task: 0, Attempt: 0, PairsEmitted: 4, Sections: []Section{{Path: "p", Length: 9, Task: 0}}}
	e1 := manifestEntry{Task: 3, Attempt: 1, PairsEmitted: 2}
	if err := m.commit(e0); err != nil {
		t.Fatal(err)
	}
	if err := m.commit(e1); err != nil {
		t.Fatal(err)
	}
	m.close()

	entries, err := readManifest(runfile.OSFS, ManifestPath(dir, "w0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Task != 0 || entries[1].Task != 3 || entries[1].Attempt != 1 {
		t.Fatalf("replayed %+v", entries)
	}
}

// TestManifestTornTail: a worker killed inside its final commit leaves
// a partial last line; replay must keep every complete entry and drop
// only the torn one.
func TestManifestTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := openManifest(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.commit(manifestEntry{Task: 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.commit(manifestEntry{Task: 1}); err != nil {
		t.Fatal(err)
	}
	m.close()
	path := ManifestPath(dir, "w0")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Task":2,"Attempt":0,"Sect`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, err := readManifest(runfile.OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Task != 1 {
		t.Fatalf("torn-tail replay = %+v, want tasks 0 and 1", entries)
	}
}

func TestManifestMissingIsEmpty(t *testing.T) {
	entries, err := readManifest(runfile.OSFS, filepath.Join(t.TempDir(), "no-such-manifest"))
	if err != nil || entries != nil {
		t.Fatalf("missing manifest = (%v, %v), want (nil, nil)", entries, err)
	}
}

// TestCrashReopenFaultMarch marches an injected I/O failure through
// every filesystem call of the crash-reopen path — manifest replay plus
// section validation, the exact sequence the driver's salvage runs on a
// dead worker — and requires each outcome to be either success (the
// redundancy absorbed the fault, e.g. the footer read failed and the
// sequential scan recovered) or an error with the injected fault still
// in the chain. An error that lost the cause, or a panic, is a bug in
// the reopen path's error handling.
func TestCrashReopenFaultMarch(t *testing.T) {
	dir := t.TempDir()
	sec := buildSection(t, dir)
	m, err := openManifest(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	entry := manifestEntry{Task: 0, Attempt: 0, PairsEmitted: 6, Sections: []Section{sec}}
	if err := m.commit(entry); err != nil {
		t.Fatal(err)
	}
	m.close()

	reopen := func(fs runfile.FS) error {
		entries, err := readManifest(fs, ManifestPath(dir, "w0"))
		if err != nil {
			return err
		}
		if len(entries) != 1 {
			t.Fatalf("replayed %d entries, want 1", len(entries))
		}
		for _, s := range entries[0].Sections {
			if err := validateSection(fs, s); err != nil {
				return err
			}
		}
		return nil
	}

	// Counting pass: how many calls of each op does one reopen perform?
	probe := errfs.New(nil)
	if err := reopen(probe); err != nil {
		t.Fatalf("fault-free reopen failed: %v", err)
	}
	for _, op := range []errfs.Op{errfs.OpOpen, errfs.OpRead, errfs.OpReadAt, errfs.OpClose} {
		total := probe.Calls(op)
		if total == 0 && op != errfs.OpClose {
			t.Fatalf("probe saw no %s calls; the march would be vacuous", op)
		}
		for nth := 1; nth <= total; nth++ {
			fs := errfs.New(nil)
			fs.FailAt(op, nth, nil)
			err := reopen(fs)
			if err == nil {
				continue // redundancy absorbed the fault (footer → scan fallback)
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Errorf("%s call %d: injected fault lost from chain: %v", op, nth, err)
			}
		}
	}
}

// writeTestImage writes records as an input image under a fresh temp
// dir, size records per map task, and returns its path and tasks.
func writeTestImage(t testing.TB, records []string, size int) (string, []mapTaskSpec) {
	t.Helper()
	var tasks []mapTaskSpec
	for lo := 0; lo < len(records); lo += size {
		tasks = append(tasks, mapTaskSpec{lo: lo, hi: min(lo+size, len(records))})
	}
	path := filepath.Join(t.TempDir(), inputsFile)
	if _, err := writeInputs(path, records, tasks); err != nil {
		t.Fatal(err)
	}
	return path, tasks
}

// writeTestOutput writes a reduce output run file of three keys (five
// outputs) and the report that accepts it.
func writeTestOutput(t *testing.T) ReduceReport {
	t.Helper()
	path := outPath(t.TempDir(), 0, 0)
	rs := []reduced[string, wcOut]{
		{keys: []string{"alpha", "beta"}, ends: []int{2, 3}, outs: []wcOut{{"alpha", 1}, {"alpha", 2}, {"beta", 3}}},
		{keys: []string{"gamma"}, ends: []int{2}, outs: []wcOut{{"gamma", 4}, {"gamma", 5}}},
	}
	size, err := writeOutputs(path, rs)
	if err != nil {
		t.Fatal(err)
	}
	return ReduceReport{OutPath: path, OutBytes: size, Keys: 3, Outputs: 5}
}

// TestInputImageRoundTrip: every task reads back exactly its own
// records, from its own value section.
func TestInputImageRoundTrip(t *testing.T) {
	records := genLines(23)
	path, tasks := writeTestImage(t, records, 5)
	for i, tk := range tasks {
		got, err := readInputs[string](path, tk.off, tk.bytes, tk.hi-tk.lo)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, records[tk.lo:tk.hi]) {
			t.Fatalf("task %d read %q, want %q", i, got, records[tk.lo:tk.hi])
		}
	}
}

// TestForgedRecordCountsAreErrors: a record count is checked against
// the bytes that should hold it — an input section against its task's
// Hi-Lo, a reduce output against its accepted report. A count the bytes
// do not hold, an absurd one included, must come back as an error
// naming the file — never a short task, a panic, or an allocation
// sized by the forged number.
func TestForgedRecordCountsAreErrors(t *testing.T) {
	path, tasks := writeTestImage(t, genLines(12), 4)
	tk := tasks[1]
	for _, n := range []int{0, tk.hi - tk.lo - 1, tk.hi - tk.lo + 1, math.MaxInt32} {
		if _, err := readInputs[string](path, tk.off, tk.bytes, n); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("readInputs(%d records of a %d-record section) = %v, want an error naming %s", n, tk.hi-tk.lo, err, path)
		}
	}
	// The section boundaries are part of the count: one task's
	// coordinates stretched over its neighbour's group are an error too.
	if _, err := readInputs[string](path, tk.off, tk.bytes+tasks[2].bytes, tk.hi-tk.lo); err == nil {
		t.Error("a section overrunning its group was read without error")
	}

	rep := writeTestOutput(t)
	for _, n := range []int64{-1, 0, rep.Outputs - 1, rep.Outputs + 1, 1 << 40} {
		lie := rep
		lie.Outputs = n
		if _, err := mergeOutputs[string, wcOut](runfile.OSFS, []ReduceReport{lie}, n); err == nil || !strings.Contains(err.Error(), rep.OutPath) {
			t.Errorf("mergeOutputs(report of %d outputs, file of %d) = %v, want an error naming %s", n, rep.Outputs, err, rep.OutPath)
		}
	}
	outs, err := mergeOutputs[string, wcOut](runfile.OSFS, []ReduceReport{rep}, rep.Outputs)
	if err != nil || len(outs) != int(rep.Outputs) {
		t.Fatalf("honest report: %d outputs, %v", len(outs), err)
	}
}

// TestInputImageFooterNotRead: a map worker reads its records by the
// coordinates its task carries, so a torn or forged footer (which no
// worker reads) leaves every task's records exact, while a tear that
// reaches a task's section is an error naming the image.
func TestInputImageFooterNotRead(t *testing.T) {
	records := genLines(12)
	path, tasks := writeTestImage(t, records, 4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	last := tasks[len(tasks)-1]
	readAll := func() error {
		for _, tk := range tasks {
			got, err := readInputs[string](path, tk.off, tk.bytes, tk.hi-tk.lo)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, records[tk.lo:tk.hi]) {
				t.Fatalf("task [%d,%d) read %q after a footer forgery", tk.lo, tk.hi, got)
			}
		}
		return nil
	}

	// Forge the footer and trailer byte by byte: every task still reads
	// back exactly.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := last.off + last.bytes
	junk := bytes.Repeat([]byte{0xff}, int(st.Size()-end))
	if _, err := f.WriteAt(junk, end); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := readAll(); err != nil {
		t.Fatalf("forged footer: %v", err)
	}

	// Tear the image through the last task's section.
	if err := os.Truncate(path, end-1); err != nil {
		t.Fatal(err)
	}
	if err := readAll(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("image torn inside a section: %v, want an error naming %s", err, path)
	}
}

// footerOffsetPos locates the first footer entry's offset delta in a
// finished run file: after the trailer-addressed footer's marker and
// count, that entry's key-prefix length, suffix length, suffix and value
// count.
func footerOffsetPos(t *testing.T, data []byte) int {
	t.Helper()
	pos := int(binary.LittleEndian.Uint64(data[len(data)-12:]))
	skip := func() uint64 {
		x, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatal("unparseable footer")
		}
		pos += n
		return x
	}
	skip()             // marker
	skip()             // entry count
	skip()             // shared key prefix
	pos += int(skip()) // key suffix
	skip()             // value count
	return pos
}

// TestForgedOutputOffsetIsError: a reduce output whose footer sends the
// merge to the wrong bytes — the first group's offset forged, and with
// it every later one (offsets are delta-coded) — is an error naming the
// file, never a short or wrong output.
func TestForgedOutputOffsetIsError(t *testing.T) {
	rep := writeTestOutput(t)
	data, err := os.ReadFile(rep.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	pos := footerOffsetPos(t, data)
	if data[pos] != 5 {
		t.Fatalf("first group offset = %d, want 5 (just past the header)", data[pos])
	}
	data[pos] = 0 // into the header
	if err := os.WriteFile(rep.OutPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	outs, err := mergeOutputs[string, wcOut](runfile.OSFS, []ReduceReport{rep}, rep.Outputs)
	if err == nil || !strings.Contains(err.Error(), rep.OutPath) {
		t.Fatalf("forged output offset: %d outputs, %v; want an error naming %s", len(outs), err, rep.OutPath)
	}
}

// forgedOutputFS hands the driver every reduce output file rewritten
// with one value more in its first group than the worker wrote — a
// well-formed run file whose count disagrees with the accepted report.
type forgedOutputFS struct {
	runfile.FS
	forged sync.Map // path -> struct{}: each file is forged once
}

func (fs *forgedOutputFS) Open(name string) (runfile.File, error) {
	if _, done := fs.forged.LoadOrStore(name, struct{}{}); !done && strings.HasPrefix(filepath.Base(name), "out-p") {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		w := runfile.NewWriter(&buf)
		gb := runfile.NewGroupBatch(bytes.NewReader(data), nil)
		for first := true; ; first = false {
			key, b, err := gb.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			extra := 0
			if first {
				extra = 1
			}
			w.BeginGroup(key, b.Len()+extra)
			w.AppendRawBytes(b.Raw(), b.Len())
			if first {
				w.AppendValue(b.Value(0))
			}
		}
		if err := w.Finish(); err != nil {
			return nil, err
		}
		if err := os.WriteFile(name, buf.Bytes(), 0o600); err != nil {
			return nil, err
		}
	}
	return fs.FS.Open(name)
}

// TestProcOutputCountMismatchFailsCleanly: an output file whose count
// disagrees with the accepted reduce report fails the job with an error
// naming the file — and the run still cleans up its scratch directory.
func TestProcOutputCountMismatchFailsCleanly(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	_, _, err := Run[string, string, int, wcOut]("wordcount", genLines(40), Options{
		Workers: 2, Partitions: 3, Timeout: 90 * time.Second,
		FS: &forgedOutputFS{FS: runfile.OSFS},
	})
	if err == nil || !strings.Contains(err.Error(), "accepted report") || !strings.Contains(err.Error(), "out-p") {
		t.Fatalf("forged output count = %v, want a count-mismatch error naming the output file", err)
	}
	left, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range left {
		t.Errorf("failed run left %s behind", e.Name())
	}
}

// FuzzProcInputSection forges input images — one byte overwritten, or
// the file cut short — and reads every task back. A task whose section
// bytes survived must read exactly its records; any task may fail, but
// only with an error naming the image, and a read that succeeds never
// returns a record count other than its task's (the format carries no
// checksum, so a forged payload byte inside a section can only be held
// to the count).
func FuzzProcInputSection(f *testing.F) {
	f.Add([]byte("alpha beta gamma delta epsilon"), uint8(2), uint16(7), byte(0xff), false)
	f.Add([]byte("a b c d e f g h"), uint8(3), uint16(40), byte(0), true)
	f.Add([]byte(""), uint8(1), uint16(0), byte(1), false)
	f.Fuzz(func(t *testing.T, text []byte, size uint8, pos uint16, b byte, cut bool) {
		records := strings.Fields(string(text))
		path, tasks := writeTestImage(t, records, int(size%8)+1)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := int64(int(pos) % len(data))
		if cut {
			data = data[:at]
		} else {
			data[at] = b
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tasks {
			n := tk.hi - tk.lo
			got, err := readInputs[string](path, tk.off, tk.bytes, n)
			intact := (cut && at >= tk.off+tk.bytes) || (!cut && (at < tk.off || at >= tk.off+tk.bytes))
			switch {
			case err != nil:
				if intact {
					t.Fatalf("task [%d,%d) with intact section: %v", tk.lo, tk.hi, err)
				}
				if !strings.Contains(err.Error(), path) {
					t.Fatalf("error does not name the image: %v", err)
				}
			case len(got) != n:
				t.Fatalf("task [%d,%d) read %d records", tk.lo, tk.hi, len(got))
			case intact && !reflect.DeepEqual(got, records[tk.lo:tk.hi]):
				t.Fatalf("task [%d,%d) read %q, want %q", tk.lo, tk.hi, got, records[tk.lo:tk.hi])
			}
		}
	})
}
