package proc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestForgedRecordCountsAreErrors: the leading count of a reduce output
// file and of the job's input file is bytes on disk. A negative or
// absurd one must come back as an error naming the file — never size an
// allocation (a panic or an out-of-memory death in the driver or a
// worker).
func TestForgedRecordCountsAreErrors(t *testing.T) {
	// int64 on the wire is gob's one signed integer: it decodes into the
	// readers' int, or — where int is 32 bits — fails the decode.
	for _, n := range []int64{-1, 1 << 40} {
		path := filepath.Join(t.TempDir(), "forged.gob")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(n); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := readOutputs[string, wcOut](runfile.OSFS, path, 3); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("readOutputs(count %d) = %v, want an error naming %s", n, err, path)
		}
		job := &jobImpl[string, string, int, wcOut]{}
		if _, _, err := job.loadInputs(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("loadInputs(count %d) = %v, want an error naming %s", n, err, path)
		}
	}
}

// forgedOutputFS hands the driver every reduce output file with its
// leading group count overwritten by one more than the worker wrote.
type forgedOutputFS struct{ runfile.FS }

func (fs forgedOutputFS) Open(name string) (runfile.File, error) {
	if strings.HasPrefix(filepath.Base(name), "out-p") {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		var n int
		err = gob.NewDecoder(f).Decode(&n)
		f.Close()
		if err != nil {
			return nil, err
		}
		var forged bytes.Buffer
		if err := gob.NewEncoder(&forged).Encode(n + 1); err != nil {
			return nil, err
		}
		if err := os.WriteFile(name, forged.Bytes(), 0o600); err != nil {
			return nil, err
		}
	}
	return fs.FS.Open(name)
}

// TestProcOutputCountMismatchFailsCleanly: an output file whose count
// disagrees with the accepted reduce report fails the job with an error
// — and the run still cleans up its scratch directory.
func TestProcOutputCountMismatchFailsCleanly(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	_, _, err := Run[string, string, int, wcOut]("wordcount", genLines(40), Options{
		Workers: 2, Partitions: 3, Timeout: 90 * time.Second,
		FS: forgedOutputFS{runfile.OSFS},
	})
	if err == nil || !strings.Contains(err.Error(), "accepted report") {
		t.Fatalf("forged output count = %v, want a count-mismatch error", err)
	}
	left, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range left {
		t.Errorf("failed run left %s behind", e.Name())
	}
}
