package shuffle

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	if st.PairsShuffled != total || st.Reducers != keys {
		t.Fatalf("stats = pairs %d keys %d, want %d and %d", st.PairsShuffled, st.Reducers, total, keys)
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
		err := s.Partition(p).forEachGroup(func(k int, vs []int) error {
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
	if memStats.PairsShuffled != diskStats.PairsShuffled || memStats.Reducers != diskStats.Reducers ||
		memStats.MaxReducerInput != diskStats.MaxReducerInput ||
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
		memPart.forEachGroup(func(k string, vs []int) error {
			memGroups = append(memGroups, group{k, vs})
			return nil
		})
		if err := diskPart.forEachGroup(func(k string, vs []int) error {
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

// TestSpillGroupsMatchMemory: struct keys and values take their
// compiled plan through the run-file codec, so a spilling shuffle must
// group exactly as an in-memory one — for fixed-width keys, keys with
// strings, and values with an unexported field.
func TestSpillGroupsMatchMemory(t *testing.T) {
	type cell struct{ I, J int }
	type payload struct{ X float64 }
	type k2 struct{ A, B string }
	type hidden struct {
		Pub  int
		priv string
	}
	t.Run("cell", func(t *testing.T) {
		checkSpillMatchesMemory(t, 40, func(i int) Pair[cell, payload] {
			return Pair[cell, payload]{cell{i % 5, i % 3}, payload{float64(i) / 2}}
		})
	})
	t.Run("string-key", func(t *testing.T) {
		checkSpillMatchesMemory(t, 40, func(i int) Pair[k2, int] {
			return Pair[k2, int]{k2{fmt.Sprint(i % 4), strings.Repeat("b", i%3)}, i}
		})
	})
	t.Run("unexported-value", func(t *testing.T) {
		checkSpillMatchesMemory(t, 40, func(i int) Pair[int, hidden] {
			return Pair[int, hidden]{i % 6, hidden{i, fmt.Sprint("v", i)}}
		})
	})
}

// checkSpillMatchesMemory streams n generated pairs through an
// in-memory shuffle and through one that spills, and requires equal
// groups from both.
func checkSpillMatchesMemory[K comparable, V any](t *testing.T, n int, gen func(i int) Pair[K, V]) {
	t.Helper()
	task := make([]Pair[K, V], n)
	for i := range task {
		task[i] = gen(i)
	}
	mem := New[K, V](Options{Partitions: 2})
	defer mem.Close()
	streamTasks(t, mem, [][]Pair[K, V]{task}, 1)
	disk := New[K, V](Options{Partitions: 2, MaxBufferedPairs: 4, SpillDir: t.TempDir()})
	defer disk.Close()
	streamTasks(t, disk, [][]Pair[K, V]{task}, 1)
	st, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("workload never spilled")
	}
	want, got := collectGroups(t, mem), collectGroups(t, disk)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("spilled groups diverge from memory:\n got %v\nwant %v", got, want)
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
	s := newTuned[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir(),
	}, tuning{compactors: -1})
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
	if st.Reducers != 11 || st.PairsShuffled != n {
		t.Errorf("stats = keys %d pairs %d, want 11 and %d", st.Reducers, st.PairsShuffled, n)
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
		if st.SpillEvents != int64(seals) || st.PairsShuffled != int64(seals) || st.Reducers != 11 {
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
// fmt.Sprint forms collide are still two keys in the field-wise order,
// so the k-way merge — in memory and over spilled runs — must emit
// exactly one group per actual key with all its values.
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
		if st.Reducers != int64(len(want)) {
			t.Errorf("spillDir=%q: Stats.Reducers = %d, want %d", spillDir, st.Reducers, len(want))
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
	if err := s.Partition(0).forEachGroup(func(int, []int) error { return nil }); err == nil {
		t.Error("forEachGroup after Close returned nil error on a spilled partition")
	}
	if _, err := s.Stats(); err == nil {
		t.Error("Stats after Close returned nil error on a spilled shuffle")
	}
	// The never-spilled partition stays readable.
	if err := s.Partition(1).forEachGroup(func(int, []int) error { return nil }); err != nil {
		t.Errorf("unspilled partition unreadable after Close: %v", err)
	}
}

// TestSpillRejectsPointerKeys: keys containing pointers have no key
// plan — no order that agrees with ==, and copies decoded from disk
// would be fresh allocations that break == and split groups. They are a
// programming error the executors rule out (CheckKey) before any task
// runs, so New refuses them outright, naming the type.
func TestSpillRejectsPointerKeys(t *testing.T) {
	type pk struct{ P *int }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shuffle.pk") {
			t.Fatalf("New[pk] recovered %v, want a panic naming the key type", r)
		}
	}()
	New[pk, int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
}

// TestSpillValueTypes: a value with an unexported field spills with
// that field intact, and a value type with no codec (*int) is refused
// when the shuffle is made, before any task runs.
func TestSpillValueTypes(t *testing.T) {
	type lossy struct {
		Pub  int
		priv int
	}
	s := New[int, lossy](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer s.Close()
	task := make([]Pair[int, lossy], 8)
	for i := range task {
		task[i] = Pair[int, lossy]{i % 2, lossy{i, i * 10}}
	}
	streamTasks(t, s, [][]Pair[int, lossy]{task}, 1)
	sum := 0
	for _, vs := range collectGroups(t, s) {
		for _, v := range vs {
			if v.priv != 10*v.Pub {
				t.Fatalf("value %+v lost its unexported field across the spill", v)
			}
			sum += v.priv
		}
	}
	if sum != 280 {
		t.Errorf("unexported fields sum to %d after the spill, want 280", sum)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "*int has no codec") {
			t.Fatalf("New[int, *int] recovered %v, want a panic naming the value type", r)
		}
	}()
	New[int, *int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
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

// TestWithSeedDeterministicPlacement: a shuffle places keys under the
// seed WithSeed set when it was created — alike in every shuffle of
// that seed, differently under another — and under seed 0, the seed
// of every proc worker, once restore runs.
func TestWithSeedDeterministicPlacement(t *testing.T) {
	const parts = 64
	placement := func() []int {
		s := New[string, int](Options{Partitions: parts})
		var ps []int
		for i := 0; i < 1000; i++ {
			ps = append(ps, s.PartitionOf(fmt.Sprintf("key-%d", i)))
		}
		return ps
	}
	unseeded := placement()
	h := NewStableHasher[string](0)
	for i, p := range unseeded {
		if want := int(h.Hash(fmt.Sprintf("key-%d", i)) % parts); p != want {
			t.Fatalf("key-%d placed on %d, want %d: the stable hash under seed 0", i, p, want)
		}
	}

	restore := WithSeed(42)
	p42, again := placement(), placement()
	restore2 := WithSeed(43)
	p43 := placement()
	restore2()
	if !slices.Equal(p42, again) {
		t.Fatal("two shuffles of seed 42 place keys apart")
	}
	if slices.Equal(p42, p43) {
		t.Fatal("seeds 42 and 43 place every key alike")
	}
	// The seeded placement still spreads keys.
	count := make([]int, parts)
	for _, p := range p42 {
		count[p]++
	}
	if slices.Contains(count, 0) {
		t.Fatalf("seed 42 leaves a partition empty: %v", count)
	}

	restore()
	if !slices.Equal(placement(), unseeded) {
		t.Fatal("restore did not return placement to seed 0")
	}
}
