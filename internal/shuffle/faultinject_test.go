package shuffle

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/errfs"
	"repro/internal/runfile"
)

// Fault injection over the whole disk data path: every filesystem
// operation behind the spill, compaction and reduce-merge machinery is
// failed in turn (via internal/errfs threaded through Options.FS), and
// each failure must surface as a wrapped error — errors.Is finds the
// injected cause through every layer — with no panic and no silently
// truncated output. Mapping failures are the exception: mmap is an
// optimization with a pread fallback, so injected mmap/madvise/munmap
// faults must select the fallback and leave the output untouched.

// noMmap forces the positioned-read fallback, making OpReadAt ordinals
// deterministic for the injection cases below: every file the shuffle
// opens loses its Mapper capability, so runfile.Map reports ErrNoMmap
// exactly as on a platform without mmap. Reads and writes still pass
// through the wrapped (fault-injecting) FS.
func noMmap(o *Options) { o.FS = unmappableFS{o.FS} }

type unmappableFS struct{ runfile.FS }

func (u unmappableFS) Open(name string) (runfile.File, error) {
	f, err := u.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ runfile.File }{f}, nil
}

// spillWorkload ingests pairs pairs of key i%keys, as one task on one
// goroutine, into a single-partition shuffle with the given budget over
// fs, returning the shuffle and the round's error. Compaction is inline,
// so the round's filesystem calls come in one fixed order and an
// injection ordinal names the same call on every run.
func spillWorkload(t *testing.T, fs *errfs.FS, budget, pairs, keys int, mod ...func(*Options)) (*Shuffle[int, int], error) {
	t.Helper()
	opts := Options{
		Partitions: 1, MaxBufferedPairs: budget,
		SpillDir: t.TempDir(), FS: fs,
	}
	for _, m := range mod {
		m(&opts)
	}
	s := newTuned[int, int](opts, tuning{compactors: -1})
	return s, ingestTasksErr(s, [][]Pair[int, int]{modPairs(pairs, keys)}, 1)
}

// groupCounts streams the partition and returns per-key value counts.
func groupCounts(t *testing.T, s *Shuffle[int, int]) map[int]int {
	t.Helper()
	got := map[int]int{}
	if err := s.Partition(0).forEachGroup(func(k int, vs []int) error {
		got[k] += len(vs)
		return nil
	}); err != nil {
		t.Fatalf("reading partition back: %v", err)
	}
	return got
}

// wantCounts is the expected per-key count of the i%keys workload.
func wantCounts(pairs, keys int) map[int]int {
	want := map[int]int{}
	for i := 0; i < pairs; i++ {
		want[i%keys]++
	}
	return want
}

// TestFaultInjectionSpill fails each operation of the ingest-to-disk
// path — the swap stash and the seal spool: create, write, the swap
// read-back, close — and requires the round to surface the injected
// error wrapped. The workload's one task outgrows the budget before it
// commits, so its first flush swaps (stash create and write come
// first); the commit reads the swap back and seals as it absorbs.
func TestFaultInjectionSpill(t *testing.T) {
	cases := []struct {
		name    string
		op      errfs.Op
		nth     int
		wantMsg string
	}{
		{"create-swap-stash", errfs.OpCreate, 1, "creating swap spool"},
		{"create-seal-spool", errfs.OpCreate, 2, "creating seal spool"},
		{"write-swap-section", errfs.OpWrite, 1, "writing swap spool"},
		{"write-first-seal", errfs.OpWrite, 2, "flushing seal spool"},
		{"write-later-seal", errfs.OpWrite, 4, "flushing seal spool"},
		{"pread-swap-readback", errfs.OpReadAt, 1, "reading swap spool"},
		{"close-seal-spool", errfs.OpClose, 1, "closing seal spool"},
		{"close-swap-stash", errfs.OpClose, 2, "closing swap spool"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(tc.op, tc.nth, nil)
			s, err := spillWorkload(t, fs, 2, 16, 5)
			defer s.Close()
			if err == nil {
				t.Fatal("round succeeded despite injected failure")
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantMsg)
			}
		})
	}

	// A failed spill must not leak its spools: the creates succeed, a
	// seal's write fails, and once the failed round is closed the spill
	// directory is empty.
	fs := errfs.New(nil)
	fs.FailAt(errfs.OpWrite, 2, nil)
	s, err := spillWorkload(t, fs, 2, 16, 5)
	if err == nil {
		t.Fatal("round succeeded despite injected write failure")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("closing the failed round: %v", err)
	}
	if left, err := os.ReadDir(s.opts.SpillDir); err != nil || len(left) != 0 {
		t.Errorf("failed spill left %d files in place (err %v)", len(left), err)
	}
}

// TestFaultInjectionCompaction drives a partition to
// maxDiskRunsPerPartition seals so compaction runs mid-round, then
// fails each of its operations: reopening the seal spool, the
// positioned section reads, the output create, and the output flush.
// A second, longer round reaches the file fan-in bound, where the
// compaction's inputs span maxDiskRunFanIn files, and fails the first
// and the last of their opens. The pread fallback is forced so the read
// ordinals are deterministic; mapping faults get their own fallback
// test below.
func TestFaultInjectionCompaction(t *testing.T) {
	const pairs = maxDiskRunsPerPartition // budget 1: one seal per pair, compaction at the last
	// Discovery pass: count the clean run's operations so the injections
	// can target the compaction (the last create and write; the last
	// `pairs` positioned reads, one per one-group input run — the earlier
	// ones are swap read-backs) without hard-coding buffer-dependent
	// ordinals.
	probe := errfs.New(nil)
	s, err := spillWorkload(t, probe, 1, pairs, 7, noMmap)
	if err != nil {
		t.Fatalf("clean compaction run failed: %v", err)
	}
	s.Close()
	creates, writes, preads := probe.Calls(errfs.OpCreate), probe.Calls(errfs.OpWrite), probe.Calls(errfs.OpReadAt)
	if creates != 3 {
		t.Fatalf("clean run created %d files, want 3: swap stash, seal spool, compaction output", creates)
	}
	if opens := probe.Calls(errfs.OpOpen); opens != 1 {
		t.Fatalf("clean run opened %d files, want 1: every input run shares the seal spool", opens)
	}
	if preads <= pairs {
		t.Fatalf("clean run issued %d positioned reads, want swap read-backs plus %d compaction sections", preads, pairs)
	}

	cases := []struct {
		name    string
		op      errfs.Op
		nth     int
		wantMsg string
	}{
		{"open-spool", errfs.OpOpen, 1, "compacting"},
		{"pread-first-section", errfs.OpReadAt, preads - pairs + 1, "reading spill"},
		{"pread-mid-section", errfs.OpReadAt, preads - pairs/2, "reading spill"},
		{"pread-last-section", errfs.OpReadAt, preads, "reading spill"},
		{"create-output", errfs.OpCreate, creates, "creating compacted run"},
		{"write-output-flush", errfs.OpWrite, writes, "compacted run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(tc.op, tc.nth, nil)
			s, err := spillWorkload(t, fs, 1, pairs, 7, noMmap)
			defer s.Close()
			if err == nil {
				t.Fatal("round succeeded despite injected compaction failure")
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantMsg)
			}
		})
	}

	// A compaction over several files: the round's last seal makes the
	// spool file number maxDiskRunFanIn, and the higher-tier merge it
	// triggers opens every tier-1 output and then the spool. Failing the
	// first of those opens, and the last — after maxDiskRunFanIn-1
	// handles are already taken and must be released — fails the round
	// wrapped, and closing the failed round leaves the spill dir empty.
	probe = errfs.New(nil)
	s, err = spillWorkload(t, probe, 1, sealsToFileFanIn, 7, noMmap)
	if err != nil {
		t.Fatalf("clean higher-tier run failed: %v", err)
	}
	s.Close()
	opens := probe.Calls(errfs.OpOpen)
	if want := maxDiskRunFanIn - 1 + maxDiskRunFanIn; opens != want {
		t.Fatalf("clean higher-tier run opened %d files, want %d: the spool once per tier-1 compaction, then %d inputs",
			opens, want, maxDiskRunFanIn)
	}
	for _, tc := range []struct {
		name string
		nth  int
	}{
		{"open-first-input", opens - maxDiskRunFanIn + 1},
		{"open-last-input", opens},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(errfs.OpOpen, tc.nth, nil)
			s, err := spillWorkload(t, fs, 1, sealsToFileFanIn, 7, noMmap)
			if !errors.Is(err, errfs.ErrInjected) || !strings.Contains(err.Error(), "compacting") {
				t.Fatalf("err = %v, want the injected open failure wrapped by the compaction", err)
			}
			if n := len(s.parts[0].disk); n != maxDiskRunFanIn {
				t.Fatalf("failed compaction left %d disk runs, want its %d inputs untouched", n, maxDiskRunFanIn)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("closing the failed round: %v", err)
			}
			if left, err := os.ReadDir(s.opts.SpillDir); err != nil || len(left) != 0 {
				t.Errorf("failed compaction left %d files in place (err %v)", len(left), err)
			}
			// Every handle taken was given back: the failed open took none.
			if got, want := fs.Calls(errfs.OpClose), fs.Calls(errfs.OpCreate)+fs.Calls(errfs.OpOpen)-1; got != want {
				t.Errorf("%d closes for %d handles: the partial open leaked", got, want)
			}
		})
	}
}

// TestFaultInjectionMmapFallback fails the mapping operations — mmap,
// madvise, munmap — during a compacting workload with mapping enabled.
// None of them may fail the round: a mapping fault silently selects
// the pread fallback (munmap faults are absorbed at close), and the
// output must be byte-for-byte the same groups as an unfaulted run.
func TestFaultInjectionMmapFallback(t *testing.T) {
	const pairs, keys = maxDiskRunsPerPartition, 7
	want := wantCounts(pairs, keys)
	for _, tc := range []struct {
		name string
		op   errfs.Op
	}{
		{"mmap-fails", errfs.OpMmap},
		{"madvise-fails", errfs.OpMadvise},
		{"munmap-fails", errfs.OpMunmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(tc.op, 1, nil)
			s, err := spillWorkload(t, fs, 1, pairs, keys)
			defer s.Close()
			if err != nil {
				t.Fatalf("injected %s fault must engage the fallback, not fail the round: %v", tc.name, err)
			}
			// Some cursors may be mapped and some not (the injection hit
			// one file); the merge must not care.
			got := map[int]int{}
			if rerr := s.Partition(0).forEachGroup(func(k int, vs []int) error {
				got[k] += len(vs)
				return nil
			}); rerr != nil {
				t.Fatalf("read after %s fault: %v", tc.name, rerr)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("after %s fault: key %d has %d values, want %d", tc.name, k, got[k], n)
				}
			}
		})
	}
}

// TestFaultInjectionReduceMerge spills cleanly — past one compaction,
// so the partition's runs live in two files, the compacted run and the
// seal spool — then fails the reduce-time k-way merge's reopens and
// positioned reads at several points. The counting APIs must keep working through armed read
// failures (they are memory-only), the streaming read must surface the
// wrapped error rather than truncate, and clearing the injection must
// yield the full dataset — the files were never corrupted. An injected
// mmap fault, by contrast, must not surface at all.
func TestFaultInjectionReduceMerge(t *testing.T) {
	const budget, pairs, keys = 1, maxDiskRunsPerPartition + 3, 5
	build := func(fs *errfs.FS, mod ...func(*Options)) *Shuffle[int, int] {
		s, err := spillWorkload(t, fs, budget, pairs, keys, mod...)
		if err != nil {
			t.Fatalf("spill phase: %v", err)
		}
		fs.Reset() // ordinals below are local to the read phase
		return s
	}

	// Discovery: how many opens and section preads does a clean streaming
	// pass issue under the fallback? (One open per file, not per run: the
	// fresh seals share their spool.)
	probe := errfs.New(nil)
	s := build(probe, noMmap)
	if err := s.Partition(0).forEachGroup(func(int, []int) error { return nil }); err != nil {
		t.Fatalf("clean merge: %v", err)
	}
	opens, preads, runs := probe.Calls(errfs.OpOpen), probe.Calls(errfs.OpReadAt), len(s.parts[0].disk)
	if opens != 2 || runs <= opens || preads < runs {
		t.Fatalf("clean merge used %d opens / %d preads over %d runs; expected a merge of the compacted run and several spool runs", opens, preads, runs)
	}
	s.Close()

	cases := []struct {
		name string
		op   errfs.Op
		nth  int
	}{
		{"open-first-file", errfs.OpOpen, 1},
		{"open-last-file", errfs.OpOpen, opens},
		{"pread-first", errfs.OpReadAt, 1},
		{"pread-mid-stream", errfs.OpReadAt, preads / 2},
		{"pread-last", errfs.OpReadAt, preads},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			s := build(fs, noMmap)
			defer s.Close()

			fs.FailAt(tc.op, tc.nth, nil)
			// Counting reads stay memory-only: the armed failure must not
			// fire, and the profile must be complete.
			st, err := s.Stats()
			if err != nil {
				t.Fatalf("Stats with armed %s failure: %v", tc.op, err)
			}
			if st.PairsShuffled != pairs || st.Reducers != keys {
				t.Fatalf("Stats = pairs %d keys %d, want %d and %d", st.PairsShuffled, st.Reducers, pairs, keys)
			}
			n := 0
			if err := s.Partition(0).ForEachGroupCount(func(int, int) error { n++; return nil }); err != nil || n != keys {
				t.Fatalf("ForEachGroupCount saw %d keys (err %v), want %d", n, err, keys)
			}

			// The streaming merge hits the injection and must say so.
			err = s.Partition(0).forEachGroup(func(int, []int) error { return nil })
			if err == nil {
				t.Fatal("forEachGroup succeeded despite injected failure")
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if !strings.Contains(err.Error(), "spill") {
				t.Fatalf("err = %v, want a spill-read error", err)
			}

			// And batch mode surfaces it identically.
			fs.FailAt(tc.op, tc.nth, nil)
			if err := s.Partition(0).ForEachGroupBatch(func(int, []int) error { return nil }); !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("batch read: injected cause lost: %v", err)
			}

			// No corruption, no truncation: with the injection cleared the
			// full dataset streams back.
			fs.Reset()
			got := 0
			if err := s.Partition(0).forEachGroup(func(_ int, vs []int) error {
				got += len(vs)
				return nil
			}); err != nil {
				t.Fatalf("clean re-read after injected failure: %v", err)
			}
			if got != pairs {
				t.Fatalf("re-read streamed %d pairs, want %d (silent truncation)", got, pairs)
			}
		})
	}

	// With mapping enabled, a failed mmap is invisible to the reader:
	// the fallback engages and the stream completes.
	t.Run("mmap-fault-is-invisible", func(t *testing.T) {
		fs := errfs.New(nil)
		s := build(fs)
		defer s.Close()
		fs.FailAt(errfs.OpMmap, 1, nil)
		want := wantCounts(pairs, keys)
		got := groupCounts(t, s)
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("key %d has %d values, want %d", k, got[k], n)
			}
		}
	})
}

// TestFaultInjectionRangeMerge marches the same fault battery through
// the parallel range-merge path: spool opens during OpenRangeReader,
// clamped positioned reads inside concurrent ForEachGroupRange calls,
// and mapping faults (which must stay invisible via the pread
// fallback). Every injected failure must keep ErrInjected reachable
// through the chain, the shared reader must close cleanly with its
// semaphore slot released — proven by reopening and re-reading the full
// dataset — and the concurrent merges must join without leaks (-race).
func TestFaultInjectionRangeMerge(t *testing.T) {
	const budget, pairs, keys = 1, maxDiskRunsPerPartition + 3, 5 // two files, as in the reduce-merge march
	build := func(fs *errfs.FS, mod ...func(*Options)) *Shuffle[int, int] {
		s, err := spillWorkload(t, fs, budget, pairs, keys, mod...)
		if err != nil {
			t.Fatalf("spill phase: %v", err)
		}
		fs.Reset()
		return s
	}
	plan := func(s *Shuffle[int, int]) []KeyRange[int] {
		ranges := s.Partition(0).PlanReduceRanges(int64(pairs)/3, 4)
		if ranges == nil {
			t.Fatal("workload did not plan a split; the march exercises nothing")
		}
		return ranges
	}
	// readAll runs every range concurrently through one shared reader
	// and returns the first error in range order plus the pairs read.
	readAll := func(rr *RangeReader[int, int], ranges []KeyRange[int]) (int, error) {
		counts := make([]int, len(ranges))
		errs := make([]error, len(ranges))
		var wg sync.WaitGroup
		for i := range ranges {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = rr.ForEachGroupRange(ranges[i], false, func(_ int, vs []int) error {
					counts[i] += len(vs)
					return nil
				})
			}(i)
		}
		wg.Wait()
		total := 0
		for i := range ranges {
			if errs[i] != nil {
				return 0, errs[i]
			}
			total += counts[i]
		}
		return total, nil
	}

	// Discovery: a clean ranged pass under the pread fallback.
	probe := errfs.New(nil)
	s := build(probe, noMmap)
	ranges := plan(s)
	rr, err := s.Partition(0).OpenRangeReader()
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	if n, err := readAll(rr, ranges); err != nil || n != pairs {
		t.Fatalf("clean ranged read: %d pairs, err %v; want %d", n, err, pairs)
	}
	rr.Close()
	opens, preads := probe.Calls(errfs.OpOpen), probe.Calls(errfs.OpReadAt)
	if runs := len(s.parts[0].disk); opens != 2 || runs <= opens || preads < runs {
		t.Fatalf("clean ranged pass used %d opens / %d preads over %d runs; expected a merge of the compacted run and several spool runs", opens, preads, runs)
	}
	s.Close()

	// Open faults: OpenRangeReader must fail wrapped, release everything
	// it took, and a clean retry on the same partition must succeed.
	for _, tc := range []struct {
		name string
		nth  int
	}{
		{"open-first-file", 1},
		{"open-last-file", opens},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			s := build(fs, noMmap)
			defer s.Close()
			ranges := plan(s)
			fs.FailAt(errfs.OpOpen, tc.nth, nil)
			if _, err := s.Partition(0).OpenRangeReader(); err == nil {
				t.Fatal("OpenRangeReader succeeded despite injected open failure")
			} else if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			fs.Reset()
			rr, err := s.Partition(0).OpenRangeReader()
			if err != nil {
				t.Fatalf("clean reopen after injected failure: %v", err)
			}
			defer rr.Close()
			if n, err := readAll(rr, ranges); err != nil || n != pairs {
				t.Fatalf("re-read after failed open: %d pairs, err %v; want %d", n, err, pairs)
			}
		})
	}

	// Read faults inside the concurrent merges: the hit range surfaces
	// the wrapped error, Close stays clean, and a fresh reader streams
	// the full dataset — nothing was corrupted or left held.
	for _, tc := range []struct {
		name string
		nth  int
	}{
		{"pread-first", 1},
		{"pread-mid", preads / 2},
		{"pread-last", preads},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			s := build(fs, noMmap)
			defer s.Close()
			ranges := plan(s)
			rr, err := s.Partition(0).OpenRangeReader()
			if err != nil {
				t.Fatal(err)
			}
			fs.FailAt(errfs.OpReadAt, tc.nth, nil)
			if _, err := readAll(rr, ranges); err == nil {
				t.Fatal("ranged read succeeded despite injected read failure")
			} else if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if err := rr.Close(); err != nil {
				t.Fatalf("closing reader after injected failure: %v", err)
			}
			fs.Reset()
			rr2, err := s.Partition(0).OpenRangeReader()
			if err != nil {
				t.Fatalf("reopen after injected failure: %v", err)
			}
			defer rr2.Close()
			if n, err := readAll(rr2, ranges); err != nil || n != pairs {
				t.Fatalf("clean re-read: %d pairs, err %v; want %d (silent truncation)", n, err, pairs)
			}
		})
	}

	// Mapping faults must not surface through the ranged path either:
	// the shared view falls back to positioned reads.
	t.Run("mmap-fault-is-invisible", func(t *testing.T) {
		fs := errfs.New(nil)
		s := build(fs)
		defer s.Close()
		ranges := plan(s)
		fs.FailAt(errfs.OpMmap, 1, nil)
		rr, err := s.Partition(0).OpenRangeReader()
		if err != nil {
			t.Fatalf("mmap fault must engage the fallback, not fail the open: %v", err)
		}
		defer rr.Close()
		if n, err := readAll(rr, ranges); err != nil || n != pairs {
			t.Fatalf("ranged read under mmap fault: %d pairs, err %v; want %d", n, err, pairs)
		}
	})
}
