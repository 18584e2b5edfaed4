package shuffle

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSpillDatasetLargerThanBudget is the acceptance test for the
// external shuffle: a dataset more than 4x the total configured memory
// budget must complete with correct grouped output, nonzero bytes
// spilled, and live buffered pairs never exceeding the budget.
func TestSpillDatasetLargerThanBudget(t *testing.T) {
	const (
		parts  = 4
		budget = 512         // per-partition pair budget
		total  = 4 * 4 * 512 // 4x the total budget of parts*budget
		keys   = 97          // co-prime with total: uneven groups
	)
	dir := t.TempDir()
	s := New[int, int](Options{Partitions: parts, MaxBufferedPairs: budget, SpillDir: dir})
	defer s.Close()

	tasks := buildBuffers(8, modPairs(total, keys))
	want := make(map[int][]int) // reference grouping in shuffle value order
	for _, task := range tasks {
		for _, p := range task {
			want[p.Key] = append(want[p.Key], p.Value)
		}
	}
	streamTasks(t, s, tasks, 4)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != total || st.Keys != keys {
		t.Fatalf("stats = pairs %d keys %d, want %d and %d", st.Pairs, st.Keys, total, keys)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("BytesSpilled = 0: dataset 4x the budget never touched disk")
	}
	if st.SpillEvents == 0 || st.SpilledPairs == 0 {
		t.Fatalf("spill pressure missing: %+v", st)
	}
	if st.MaxLivePairs > budget {
		t.Fatalf("MaxLivePairs = %d exceeds the %d-pair budget", st.MaxLivePairs, budget)
	}
	if st.RunsMerged == 0 {
		t.Fatal("RunsMerged = 0, want multi-run merges on every spilled partition")
	}

	// Run files actually exist before Close: every seal of a partition
	// landed in its one spool (streamTasks checked nothing else is there).
	files, err := filepath.Glob(filepath.Join(dir, "mr-spool-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) > parts {
		t.Fatalf("%d seal spools on disk, want 1..%d (one per spilled partition)", len(files), parts)
	}

	// The streamed groups must exactly reproduce the reference
	// grouping, keys sorted, values in emission order.
	got := make(map[int][]int)
	for p := 0; p < s.NumPartitions(); p++ {
		prev, prevSet := 0, false
		err := s.Partition(p).ForEachGroup(func(k int, vs []int) error {
			if prevSet && k <= prev {
				t.Fatalf("partition %d keys out of order: %d after %d", p, k, prev)
			}
			prev, prevSet = k, true
			if _, dup := got[k]; dup {
				t.Fatalf("key %d in more than one partition or emitted twice", k)
			}
			got[k] = vs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values differ from reference")
	}

	// Close removes the run files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d spill files remain after Close", len(left))
	}
}

// TestSpillMatchesInMemorySealing: the same workload with SpillDir set
// and unset must produce identical groups and identical logical stats.
func TestSpillMatchesInMemorySealing(t *testing.T) {
	build := func(spillDir string) *Shuffle[string, int] {
		s := New[string, int](Options{Partitions: 4, MaxBufferedPairs: 16, SpillDir: spillDir})
		pairs := make([]Pair[string, int], 500)
		for i := range pairs {
			pairs[i] = Pair[string, int]{fmt.Sprintf("k%02d", i%23), i}
		}
		streamTasks(t, s, buildBuffers(3, pairs), 3)
		return s
	}
	mem := build("")
	disk := build(t.TempDir())
	defer disk.Close()

	memStats, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	diskStats, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if memStats.Pairs != diskStats.Pairs || memStats.Keys != diskStats.Keys ||
		memStats.MaxGroup != diskStats.MaxGroup ||
		memStats.SpillEvents != diskStats.SpillEvents ||
		memStats.SpilledPairs != diskStats.SpilledPairs {
		t.Fatalf("logical stats diverge:\nmem  %+v\ndisk %+v", memStats, diskStats)
	}
	if memStats.BytesSpilled != 0 {
		t.Errorf("in-memory sealing reported %d bytes spilled", memStats.BytesSpilled)
	}
	if diskStats.BytesSpilled == 0 {
		t.Error("disk sealing reported zero bytes spilled")
	}

	for p := 0; p < mem.NumPartitions(); p++ {
		memPart, diskPart := mem.Partition(p), disk.Partition(p)
		type group struct {
			k  string
			vs []int
		}
		var memGroups, diskGroups []group
		memPart.ForEachGroup(func(k string, vs []int) error {
			memGroups = append(memGroups, group{k, vs})
			return nil
		})
		if err := diskPart.ForEachGroup(func(k string, vs []int) error {
			diskGroups = append(diskGroups, group{k, vs})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memGroups, diskGroups) {
			t.Fatalf("partition %d groups diverge between mem and disk sealing", p)
		}
	}
}

// TestSpillStructKeysViaGob: non-native key and value types round-trip
// through the gob fallback of the run-file codec.
func TestSpillStructKeysViaGob(t *testing.T) {
	type cell struct{ I, J int }
	type payload struct{ X float64 }
	s := New[cell, payload](Options{Partitions: 2, MaxBufferedPairs: 4, SpillDir: t.TempDir()})
	defer s.Close()
	var task []Pair[cell, payload]
	want := make(map[cell][]payload)
	for i := 0; i < 40; i++ {
		k := cell{i % 5, i % 3}
		v := payload{float64(i) / 2}
		task = append(task, Pair[cell, payload]{k, v})
		want[k] = append(want[k], v)
	}
	streamTasks(t, s, [][]Pair[cell, payload]{task}, 1)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("struct-key workload never spilled")
	}
	if got := collectGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip diverged: got %d keys, want %d", len(got), len(want))
	}
}

// TestCompactionBoundsRunFanIn: a workload sealing far more than
// maxDiskRunsPerPartition runs must keep each partition's disk-run
// count (and therefore the merge's width) bounded via compaction, with
// grouping and value order intact. Every seal lands in the partition's
// one spool, so at this size the run-count bound — not the file fan-in,
// which TestCompactionBoundsFileFanIn reaches — is what fires; inline
// compaction makes the resulting shape exact.
func TestCompactionBoundsRunFanIn(t *testing.T) {
	s := New[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir(), CompactionConcurrency: -1,
	})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	const bound = maxDiskRunsPerPartition
	const n = 2 * 2 * bound // 2*bound seals of 2: compacts twice
	streamTasks(t, s, [][]Pair[int, int]{modPairs(n, 11)}, 1)
	// 2*bound seals of 2 pairs: seal number bound compacts everything
	// into a 2*bound-pair tier-1 run; the next bound-1 seals accumulate
	// small runs beside it and compact into a second tier-1 run WITHOUT
	// rewriting the first (tiered policy); the last seal remains small.
	disk := s.parts[0].disk
	if len(disk) >= bound {
		t.Fatalf("partition holds %d disk runs; compaction should cap below %d", len(disk), bound)
	}
	if len(disk) != 3 || disk[0].pairs != 2*bound || disk[1].pairs != 2*bound-2 || disk[2].pairs != 2 {
		sizes := make([]int64, len(disk))
		for i, dr := range disk {
			sizes[i] = dr.pairs
		}
		t.Fatalf("disk run sizes = %v, want [%d %d 2] (earlier tiers must not be rewritten)", sizes, 2*bound, 2*bound-2)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillEvents != n/2 {
		t.Errorf("SpillEvents = %d, want %d (compaction must not change seal accounting)", st.SpillEvents, n/2)
	}
	if st.Keys != 11 || st.Pairs != n {
		t.Errorf("stats = keys %d pairs %d, want 11 and %d", st.Keys, st.Pairs, n)
	}
	// Value order must survive compaction.
	checkModGroups(t, s.Partition(0), n, 11)
}

// sealsToFileFanIn is how many budget-1 seals of one partition, under
// inline compaction, bring its disk runs to maxDiskRunFanIn distinct
// files. Every compaction output is a file of its own and tier-1
// outputs are not rewritten, so the k-th run-count compaction fires
// after maxDiskRunsPerPartition+1-k fresh seals (k-1 slots hold earlier
// outputs); maxDiskRunFanIn-1 of them leave that many files and no
// spool run, and one more seal adds the spool as the last file.
const sealsToFileFanIn = (maxDiskRunFanIn-1)*(maxDiskRunsPerPartition+1) - (maxDiskRunFanIn-1)*maxDiskRunFanIn/2 + 1

// TestCompactionBoundsFileFanIn pins the other arm of needsCompaction:
// a round long enough to pile up maxDiskRunFanIn-1 tier-1 files keeps
// them until the next seal's spool would be file number maxDiskRunFanIn,
// and that seal runs the higher-tier merge — no small suffix to pick,
// so everything collapses into one run — with grouping and value order
// intact on both sides of the boundary.
func TestCompactionBoundsFileFanIn(t *testing.T) {
	for _, seals := range []int{sealsToFileFanIn - 1, sealsToFileFanIn} {
		s := buildSpilled(t, 1, seals, 11, nil)
		disk := s.parts[0].disk
		if seals < sealsToFileFanIn {
			if len(disk) != maxDiskRunFanIn-1 || diskFanIn(disk) != maxDiskRunFanIn-1 {
				t.Fatalf("%d seals: %d runs in %d files, want %d tier-1 files and nothing else",
					seals, len(disk), diskFanIn(disk), maxDiskRunFanIn-1)
			}
			if disk[0].pairs != maxDiskRunsPerPartition {
				t.Errorf("%d seals: first tier-1 run holds %d pairs, want %d (earlier tiers must not be rewritten)",
					seals, disk[0].pairs, maxDiskRunsPerPartition)
			}
		} else if len(disk) != 1 || disk[0].pairs != int64(seals) {
			t.Fatalf("%d seals: %d runs in %d files, first of %d pairs; want the higher-tier merge's one run of %d",
				seals, len(disk), diskFanIn(disk), disk[0].pairs, seals)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillEvents != int64(seals) || st.Pairs != int64(seals) || st.Keys != 11 {
			t.Errorf("%d seals: stats = %+v", seals, st)
		}
		checkModGroups(t, s.Partition(0), seals, 11)
		s.Close()
	}
}

// TestSpillValueOrderAcrossRuns: a key present in several spilled runs
// and the live run must see its values concatenated in seal order.
func TestSpillValueOrderAcrossRuns(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 10, SpillDir: t.TempDir()})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	const n = 95
	streamTasks(t, s, [][]Pair[int, int]{modPairs(n, 7)}, 1)
	checkModGroups(t, s.Partition(0), n, 7)
}

// TestMergeCollidingFormattedKeys: distinct struct keys whose
// fmt.Sprint forms collide sort as equals in the fallback order, and
// different runs may order them differently. The k-way merge must
// still emit exactly one group per actual key with all its values.
func TestMergeCollidingFormattedKeys(t *testing.T) {
	type k2 struct{ A, B string }
	// All four format as "{a b c}"; two more are unambiguous.
	colliders := []k2{{"a b", "c"}, {"a", "b c"}}
	for _, spillDir := range []string{"", t.TempDir()} {
		s := New[k2, int](Options{Partitions: 2, MaxBufferedPairs: 3, SpillDir: spillDir})
		s.SetPartitioner(func(k2) int { return 0 })
		var task []Pair[k2, int]
		want := make(map[k2][]int)
		for i := 0; i < 30; i++ {
			k := colliders[i%2]
			if i%5 == 0 {
				k = k2{"z", fmt.Sprint(i % 3)}
			}
			task = append(task, Pair[k2, int]{k, i})
			want[k] = append(want[k], i)
		}
		streamTasks(t, s, [][]Pair[k2, int]{task}, 1)
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillEvents == 0 {
			t.Fatal("workload never sealed; test is vacuous")
		}
		if st.Keys != int64(len(want)) {
			t.Errorf("spillDir=%q: Stats.Keys = %d, want %d", spillDir, st.Keys, len(want))
		}
		if got := partitionGroups(t, s.Partition(0)); !reflect.DeepEqual(got, want) {
			t.Errorf("spillDir=%q: grouped values diverge\ngot  %v\nwant %v", spillDir, got, want)
		}
		s.Close()
	}
}

// TestReadAfterCloseFails: once Close has deleted the spill files,
// streaming a partition that had spilled must error, not silently
// return the live-only remainder.
func TestReadAfterCloseFails(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 4, SpillDir: t.TempDir()})
	s.SetPartitioner(func(int) int { return 0 })
	streamTasks(t, s, [][]Pair[int, int]{modPairs(20, 3)}, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Partition(0).ForEachGroup(func(int, []int) error { return nil }); err == nil {
		t.Error("ForEachGroup after Close returned nil error on a spilled partition")
	}
	if _, err := s.Stats(); err == nil {
		t.Error("Stats after Close returned nil error on a spilled shuffle")
	}
	// The never-spilled partition stays readable.
	if err := s.Partition(1).ForEachGroup(func(int, []int) error { return nil }); err != nil {
		t.Errorf("unspilled partition unreadable after Close: %v", err)
	}
}

// TestSpillRejectsPointerKeys: keys containing pointers decode from
// disk as fresh allocations that break ==, which would silently split
// groups — the first seal must fail loudly instead. In-memory sealing
// (no SpillDir) keeps working: it groups by identity in maps.
func TestSpillRejectsPointerKeys(t *testing.T) {
	type pk struct{ P *int }
	x := 7
	key := pk{&x}

	task := make([]Pair[pk, int], 8)
	for i := range task {
		task[i] = Pair[pk, int]{key, i}
	}
	s := New[pk, int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer s.Close()
	// The first disk write of an over-budget partition is the pressure
	// swap of its staged pairs, so that is where the rejection surfaces
	// (a seal would say "cannot spill").
	err := ingestTasksErr(s, [][]Pair[pk, int]{task}, 1)
	if err == nil || !strings.Contains(err.Error(), "cannot swap staged pairs: key type") {
		t.Fatalf("ingest err = %v, want a key-type rejection", err)
	}

	mem := New[pk, int](Options{Partitions: 2, MaxBufferedPairs: 2})
	if err := ingestTasksErr(mem, [][]Pair[pk, int]{task}, 1); err != nil {
		t.Fatalf("in-memory sealing rejected pointer keys: %v", err)
	}
	if got := len(partitionGroups(t, mem.Partition(mem.PartitionOf(key)))); got != 1 {
		t.Errorf("in-memory grouping by identity broke: %d keys, want 1", got)
	}
}

// TestSpillRejectsLossyValueTypes: gob silently zeroes unexported
// struct fields, so spilled values would diverge from the in-memory
// run — the first seal must fail loudly. Pointer values are fine
// (fidelity, unlike key identity, survives fresh allocations).
func TestSpillRejectsLossyValueTypes(t *testing.T) {
	type lossy struct {
		Pub  int
		priv int //nolint:unused
	}
	s := New[int, lossy](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer s.Close()
	task := make([]Pair[int, lossy], 8)
	for i := range task {
		task[i] = Pair[int, lossy]{i % 2, lossy{i, i}}
	}
	err := ingestTasksErr(s, [][]Pair[int, lossy]{task}, 1)
	if err == nil || !strings.Contains(err.Error(), "cannot swap staged pairs: value type") {
		t.Fatalf("ingest err = %v, want a value-type rejection", err)
	}

	// Pointer-valued payloads round-trip as faithful copies.
	sp := New[int, *int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer sp.Close()
	vals := make([]int, 8)
	ptrs := make([]Pair[int, *int], len(vals))
	for i := range vals {
		vals[i] = i * 10
		ptrs[i] = Pair[int, *int]{i % 2, &vals[i]}
	}
	if err := ingestTasksErr(sp, [][]Pair[int, *int]{ptrs}, 1); err != nil {
		t.Fatalf("pointer values should spill: %v", err)
	}
	sum := 0
	for p := 0; p < sp.NumPartitions(); p++ {
		if err := sp.Partition(p).ForEachGroup(func(_ int, vs []*int) error {
			for _, v := range vs {
				sum += *v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sum != 280 {
		t.Errorf("pointer values lost data across spill: sum = %d, want 280", sum)
	}
}

// TestSpillFailureSurfaces: an unusable spill directory must fail the
// round with a useful error, not corrupt the shuffle silently.
func TestSpillFailureSurfaces(t *testing.T) {
	s := New[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 2,
		SpillDir: filepath.Join(t.TempDir(), "does", "not", "exist"),
	})
	err := ingestTasksErr(s, [][]Pair[int, int]{modPairs(16, 16)}, 1)
	if err == nil {
		t.Fatal("round succeeded with a nonexistent spill directory")
	}
	if !os.IsNotExist(unwrapAll(err)) {
		t.Fatalf("err = %v, want a not-exist I/O error", err)
	}
}

func unwrapAll(err error) error {
	for {
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}

// TestWithSeedDeterministicPlacement: under a pinned seed, placement —
// and everything derived from it — is identical across hashers and
// matches a freshly computed expectation.
func TestWithSeedDeterministicPlacement(t *testing.T) {
	restore := WithSeed(42)
	defer restore()

	h1 := NewHasher[string]()
	h2 := NewHasher[string]()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if h1.Hash(k) != h2.Hash(k) {
			t.Fatalf("pinned hashers disagree on %q", k)
		}
	}

	// Different seeds give different placements (else the hook is a
	// constant function).
	restore2 := WithSeed(43)
	h3 := NewHasher[string]()
	restore2()
	diff := 0
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if h1.Hash(k) != h3.Hash(k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 hash identically")
	}

	// The pinned hash still spreads keys.
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[h1.Hash(fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct pinned hashes over 1000 keys", len(seen))
	}

	// Restoring un-pins: new hashers return to the process seed.
	restore()
	h4 := NewHasher[string]()
	if h4.pinned {
		t.Fatal("restore did not un-pin the hasher mode")
	}
}
