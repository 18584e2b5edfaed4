// Adoption: the read side's one way in for run images the shuffle did
// not write itself.
package shuffle

import (
	"fmt"
	"io"

	"repro/internal/runfile"
)

// AdoptRun adds an existing run image — the length bytes at off of the
// file at path, written by someone else (internal/proc's map workers
// commit such images as spool sections) — to partition part as a
// borrowed, read-only disk run, after the partition's current runs in
// seal order. The image's index is loaded with runfile.LoadIndex — the
// footer, or a sequential scan of the groups when the footer is torn or
// missing — and its keys are decoded once into the typed resident
// index. From then on the run is one of the partition's own: counting
// reads (Stats, PlanReduceRanges) touch no file, and value reads go
// through the merge's shared handles and mappings. The file stays the
// caller's: Close releases it without removing it, and adopted runs are
// never compacted.
//
// An image that cannot be trusted whole is refused whole, with
// runfile.ErrCorrupt in the chain and the partition unchanged: an
// unreadable index, a key that does not decode, keys not strictly
// ascending in the canonical order, a value section outside the image,
// a count no section of that length could hold. AdoptRun must not run
// concurrently with reads or ingestion of the partition.
func (s *Shuffle[K, V]) AdoptRun(part int, path string, off, length int64) error {
	ord := orderOf[K]()
	if !ord.strict {
		return fmt.Errorf("shuffle: cannot adopt runs: key type %T has no strict canonical order", *new(K))
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return fmt.Errorf("shuffle: opening run %s: %w", path, err)
	}
	entries, err := runfile.LoadIndex(io.NewSectionReader(f, off, length), length)
	f.Close()
	if err != nil {
		return fmt.Errorf("shuffle: adopting run %s@%d+%d: %w", path, off, length, err)
	}
	corrupt := func(i int, what string) error {
		return fmt.Errorf("shuffle: adopting run %s@%d+%d: %w: group %d: %s", path, off, length, runfile.ErrCorrupt, i, what)
	}
	keys := make([]K, len(entries))
	var pairs int64
	for i, e := range entries {
		if keys[i], err = runfile.Decode[K](e.Key); err != nil {
			return corrupt(i, "undecodable key: "+err.Error())
		}
		if i > 0 && ord.cmp(keys[i-1], keys[i]) >= 0 {
			return corrupt(i, "key out of order")
		}
		if e.Offset < 0 || e.Offset > length {
			return corrupt(i, "offset outside the image")
		}
		if e.ValueBytes < 0 || e.ValueBytes > length-e.ValueOffset() {
			return corrupt(i, "value section outside the image")
		}
		// Every value costs at least its one-byte length prefix.
		if e.Count < 0 || e.Count > e.ValueBytes {
			return corrupt(i, "more values than its section can hold")
		}
		pairs += e.Count
	}

	// Runs adopted from one file share one runFile, hence one handle and
	// one mapping per merge (openRunViews).
	s.mu.Lock()
	defer s.mu.Unlock()
	rf := s.borrowed[path]
	if rf == nil {
		if s.borrowed == nil {
			s.borrowed = make(map[string]*runFile)
		}
		rf = &runFile{path: path, borrowed: true}
		s.borrowed[path] = rf
	}
	rf.refs.Add(1)
	st := &s.parts[part]
	st.disk = append(st.disk, diskRun[K]{file: rf, off: off, size: length, pairs: pairs, index: typedIndex(keys, entries)})
	st.spilledToDisk = true
	st.pairs += pairs
	s.invalidateStats()
	return nil
}
