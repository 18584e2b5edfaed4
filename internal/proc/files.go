// The data plane's file layer — run files only: the input image map
// workers read their records from, spool files a map worker appends
// fenced sections to, the manifest that commits them durably, and the
// crash-reopen path that validates sections when the committing process
// is gone. Everything driver-side goes through a runfile.FS so the
// fault-injection harness can march failures through reopen/salvage.
package proc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// SpoolPath is the spool file of one (worker, partition) pair. One
// writer process per file — no cross-process write sharing — but any
// process may read committed sections.
func SpoolPath(dir, worker string, part int) string {
	return filepath.Join(dir, fmt.Sprintf("spool-%s-p%03d.run", worker, part))
}

// ManifestPath is the worker's task-commit log.
func ManifestPath(dir, worker string) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%s.log", worker))
}

// inputsFile is the job's input image inside the scratch dir.
const inputsFile = "inputs.run"

// outPath is the output run file of one reduce attempt.
func outPath(dir string, part, attempt int) string {
	return filepath.Join(dir, fmt.Sprintf("out-p%03d-a%02d.run", part, attempt))
}

// writeRun writes one run file at path through fill and returns its
// finished writer (index, size). An error fill returns that the writer
// did not cause is an encoding failure, which no retry fixes.
func writeRun(path string, fill func(w *runfile.Writer) error) (*runfile.Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("proc: %w", err)
	}
	w := runfile.NewWriter(f)
	if err = fill(w); err != nil && w.Err() == nil {
		err = fatal(err)
	}
	if err == nil {
		err = w.Finish()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("proc: writing %s: %w", path, err)
	}
	return w, nil
}

// writeInputs writes the job's records to path as the input image: one
// run-file group per map task, keyed by the task ordinal and holding the
// task's records as its values. It records each task's value-section
// coordinates in tasks — all a worker needs to read its records — and
// returns the image's size.
func writeInputs[I any](path string, inputs []I, tasks []mapTaskSpec) (int64, error) {
	var enc shuffle.GroupEncoder[int, I]
	w, err := writeRun(path, func(w *runfile.Writer) error {
		for i, t := range tasks {
			if err := enc.Group(w, i, inputs[t.lo:t.hi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i, e := range w.Index() {
		tasks[i].off, tasks[i].bytes = e.ValueOffset(), e.ValueBytes
	}
	return w.BytesWritten(), nil
}

// readInputs reads one map task's records: the value section at
// [off, off+length) of the input image at path, in one positioned read
// and one walk that checks its framing and decodes. The section must
// frame exactly n values — a section that holds any other count is an
// error naming the path, never a short task. Nothing else of the image
// (its footer, other tasks' groups) is on this path.
func readInputs[I any](path string, off, length int64, n int) ([]I, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("proc: opening input image: %w", err)
	}
	defer f.Close()
	sec, err := runfile.ReadSectionAt(f, off, length, nil)
	var ins []I
	if err == nil {
		// A frame is at least one byte: a forged n cannot oversize ins.
		ins, err = runfile.CodecFor[I]().DecodeSection(sec, n, make([]I, 0, min(n, len(sec))))
	}
	if err != nil {
		return nil, fmt.Errorf("proc: input image %s: section [%d,%d) of %d records: %w", path, off, off+length, n, err)
	}
	return ins, nil
}

// spoolSet is one worker's open spool files, created lazily per
// partition. Worker-side only: it writes with the real filesystem, and
// the bytes it has pushed into the kernel survive the process.
type spoolSet struct {
	dir    string
	worker string
	files  map[int]*spoolFile
	w      *runfile.Writer // reused across sections via Reset
}

type spoolFile struct {
	f   *os.File
	off int64 // next section's offset
}

func newSpoolSet(dir, worker string) *spoolSet {
	return &spoolSet{dir: dir, worker: worker, files: make(map[int]*spoolFile)}
}

func (s *spoolSet) file(part int) (*spoolFile, error) {
	if sf, ok := s.files[part]; ok {
		return sf, nil
	}
	f, err := os.OpenFile(SpoolPath(s.dir, s.worker, part), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("proc: opening spool: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("proc: sizing spool: %w", err)
	}
	sf := &spoolFile{f: f, off: st.Size()}
	s.files[part] = sf
	return sf, nil
}

// appendSection writes one run-file section for (task, attempt, part):
// the write callback emits the sorted groups through the runfile.Writer
// (and is where crash-injection knobs fire mid-section), then the
// section is finished (footer + trailer) and its coordinates returned.
// seq orders the sections one attempt writes for one partition (a task
// under memory pressure seals the same partition repeatedly). A crash
// or a failed write anywhere before the caller's manifest commit leaves
// only a torn or unreferenced byte range that no reader will ever be
// handed.
func (s *spoolSet) appendSection(task, attempt, part, seq int, write func(w *runfile.Writer) error) (Section, error) {
	sf, err := s.file(part)
	if err != nil {
		return Section{}, err
	}
	if s.w == nil {
		s.w = runfile.NewWriter(sf.f)
	} else {
		s.w.Reset(sf.f)
	}
	w := s.w
	err = write(w)
	if err == nil {
		if err = w.Finish(); err != nil {
			err = fmt.Errorf("proc: finishing spool section: %w", err)
		}
	}
	if err != nil {
		// Part of the failed section may already be in the file (it is
		// O_APPEND, and the writer flushes whenever its buffer fills), so
		// sf.off no longer names the file's end. Drop the handle: the
		// next section of this partition reopens the spool and sizes it.
		sf.f.Close()
		delete(s.files, part)
		return Section{}, err
	}
	sec := Section{
		Path:       SpoolPath(s.dir, s.worker, part),
		Offset:     sf.off,
		Length:     w.BytesWritten(),
		DataBytes:  w.BodyBytes(),
		IndexBytes: w.BytesWritten() - w.BodyBytes(),
		Pairs:      w.Pairs(),
		Groups:     w.Groups(),
		Task:       task,
		Attempt:    attempt,
		Part:       part,
		Seq:        seq,
	}
	sf.off += w.BytesWritten()
	return sec, nil
}

func (s *spoolSet) closeAll() error {
	var first error
	for _, sf := range s.files {
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// manifestEntry commits one finished map task: every section it wrote,
// plus its pre-combine emission count for the metrics. The manifest is
// the durability point — a task whose entry reached the file is
// recoverable even if the worker dies before its report lands.
type manifestEntry struct {
	Task         int
	Attempt      int
	PairsEmitted int64
	// PeakResident is the attempt's buffered-pair high-water mark,
	// committed alongside the sections so salvage preserves the metric.
	PeakResident int64
	Sections     []Section
}

// manifestWriter appends entries to the worker's manifest, one JSON
// line per committed task, each line pushed to the kernel in a single
// write so a kill -9 can tear at most the final line (which the reader
// tolerates).
type manifestWriter struct{ f *os.File }

func openManifest(dir, worker string) (*manifestWriter, error) {
	f, err := os.OpenFile(ManifestPath(dir, worker), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("proc: opening manifest: %w", err)
	}
	return &manifestWriter{f: f}, nil
}

func (m *manifestWriter) commit(e manifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("proc: encoding manifest entry: %w", err)
	}
	line = append(line, '\n')
	if _, err := m.f.Write(line); err != nil {
		return fmt.Errorf("proc: committing manifest entry: %w", err)
	}
	return nil
}

func (m *manifestWriter) close() error { return m.f.Close() }

// readManifest replays a worker's manifest. A torn final line — the
// worker died inside its last commit — ends the replay cleanly: every
// complete line before it is a committed task. A missing manifest
// means no tasks committed. Any other error is surfaced: salvage must
// not mistake an unreadable log for an empty one.
func readManifest(fs runfile.FS, path string) ([]manifestEntry, error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("proc: opening manifest %s: %w", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("proc: reading manifest %s: %w", path, err)
	}
	var entries []manifestEntry
	for {
		line, rest, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			return entries, nil // torn final line: the commit never completed
		}
		var e manifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// A malformed complete line is corruption, not a torn tail:
			// stop replaying here but keep what already parsed — the
			// entries before it were each committed atomically.
			return entries, nil
		}
		entries = append(entries, e)
		data = rest
	}
}

// validateSection reopens one committed section and proves it readable
// and complete: the index is loaded via runfile.LoadIndex — footer
// first, torn-footer fallback to a sequential scan — and the recovered
// group and pair counts must equal what the manifest committed. This is
// the crash-reopen gate: a section that fails here is discarded and its
// task re-executed, never half-used.
func validateSection(fs runfile.FS, sec Section) error {
	f, err := fs.Open(sec.Path)
	if err != nil {
		return fmt.Errorf("proc: reopening spool %s: %w", sec.Path, err)
	}
	defer f.Close()
	idx, err := runfile.LoadIndex(io.NewSectionReader(f, sec.Offset, sec.Length), sec.Length)
	if err != nil {
		return fmt.Errorf("proc: section %s@%d+%d unreadable: %w", sec.Path, sec.Offset, sec.Length, err)
	}
	var pairs int64
	for _, e := range idx {
		pairs += e.Count
	}
	if int64(len(idx)) != sec.Groups || pairs != sec.Pairs {
		return fmt.Errorf("proc: section %s@%d+%d recovered %d groups/%d pairs, manifest committed %d/%d",
			sec.Path, sec.Offset, sec.Length, len(idx), pairs, sec.Groups, sec.Pairs)
	}
	return nil
}
