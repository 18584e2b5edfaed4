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

	const tasks = 8
	bufs := make([]*TaskBuffer[int, int], tasks)
	for i := range bufs {
		bufs[i] = s.NewTaskBuffer()
	}
	want := make(map[int][]int) // reference grouping in shuffle value order
	for task := 0; task < tasks; task++ {
		for i := task; i < total; i += tasks {
			bufs[task].Emit(i%keys, i)
			want[i%keys] = append(want[i%keys], i)
		}
	}
	if err := s.Merge(bufs); err != nil {
		t.Fatal(err)
	}

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

	// Run files actually exist before Close.
	files, err := filepath.Glob(filepath.Join(dir, "mr-spill-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no spill files on disk")
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
	files, _ = filepath.Glob(filepath.Join(dir, "mr-spill-*.run"))
	if len(files) != 0 {
		t.Fatalf("%d spill files remain after Close", len(files))
	}
}

// TestSpillMatchesInMemorySealing: the same workload with SpillDir set
// and unset must produce identical groups and identical logical stats.
func TestSpillMatchesInMemorySealing(t *testing.T) {
	build := func(spillDir string) *Shuffle[string, int] {
		s := New[string, int](Options{Partitions: 4, MaxBufferedPairs: 16, SpillDir: spillDir})
		bufs := make([]*TaskBuffer[string, int], 3)
		for i := range bufs {
			bufs[i] = s.NewTaskBuffer()
		}
		for i := 0; i < 500; i++ {
			bufs[i%3].Emit(fmt.Sprintf("k%02d", i%23), i)
		}
		if err := s.Merge(bufs); err != nil {
			t.Fatal(err)
		}
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
	buf := s.NewTaskBuffer()
	want := make(map[cell][]payload)
	for i := 0; i < 40; i++ {
		k := cell{i % 5, i % 3}
		v := payload{float64(i) / 2}
		buf.Emit(k, v)
		want[k] = append(want[k], v)
	}
	if err := s.Merge([]*TaskBuffer[cell, payload]{buf}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSpilled == 0 {
		t.Fatal("struct-key workload never spilled")
	}
	got := make(map[cell][]payload)
	for p := 0; p < s.NumPartitions(); p++ {
		if err := s.Partition(p).ForEachGroup(func(k cell, vs []payload) error {
			got[k] = vs
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip diverged: got %d keys, want %d", len(got), len(want))
	}
}

// TestCompactionBoundsRunFanIn: a workload sealing far more than
// maxDiskRunFanIn runs must keep each partition's disk-run count (and
// therefore the merge's open-file count) bounded via compaction, with
// grouping and value order intact.
func TestCompactionBoundsRunFanIn(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	buf := s.NewTaskBuffer()
	const n = 2 * 2 * maxDiskRunFanIn // 128 seals of 2: compacts twice
	want := make(map[int][]int)
	for i := 0; i < n; i++ {
		buf.Emit(i%11, i)
		want[i%11] = append(want[i%11], i)
	}
	if err := s.Merge([]*TaskBuffer[int, int]{buf}); err != nil {
		t.Fatal(err)
	}
	// 128 seals of 2 pairs: seal 64 compacts everything into a 128-pair
	// tier-1 run; seals 65-127 accumulate 63 small runs and compact them
	// into a second tier-1 run WITHOUT rewriting the first (tiered
	// policy); seal 128 remains small. Fan-in stays far below the cap.
	disk := s.parts[0].disk
	if len(disk) >= maxDiskRunFanIn {
		t.Fatalf("partition holds %d disk runs; compaction should cap below %d", len(disk), maxDiskRunFanIn)
	}
	if len(disk) != 3 || disk[0].pairs != 128 || disk[1].pairs != 126 || disk[2].pairs != 2 {
		sizes := make([]int64, len(disk))
		for i, dr := range disk {
			sizes[i] = dr.pairs
		}
		t.Fatalf("disk run sizes = %v, want [128 126 2] (earlier tiers must not be rewritten)", sizes)
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
	got := make(map[int][]int)
	if err := s.Partition(0).ForEachGroup(func(k int, vs []int) error {
		got[k] = vs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compacted grouping diverges from reference (value order must survive compaction)")
	}
}

// TestSpillValueOrderAcrossRuns: a key present in several spilled runs
// and the live run must see its values concatenated in seal order.
func TestSpillValueOrderAcrossRuns(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 10, SpillDir: t.TempDir()})
	defer s.Close()
	s.SetPartitioner(func(int) int { return 0 })
	buf := s.NewTaskBuffer()
	const n = 95
	for i := 0; i < n; i++ {
		buf.Emit(i%7, i)
	}
	if err := s.Merge([]*TaskBuffer[int, int]{buf}); err != nil {
		t.Fatal(err)
	}
	part := s.Partition(0)
	if got := part.NumKeys(); got != 7 {
		t.Fatalf("NumKeys = %d, want 7", got)
	}
	for _, k := range part.SortedKeys() {
		var want []int
		for i := k; i < n; i += 7 {
			want = append(want, i)
		}
		if got := part.Values(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d values = %v, want %v", k, got, want)
		}
	}
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
		buf := s.NewTaskBuffer()
		want := make(map[k2][]int)
		for i := 0; i < 30; i++ {
			k := colliders[i%2]
			if i%5 == 0 {
				k = k2{"z", fmt.Sprint(i % 3)}
			}
			buf.Emit(k, i)
			want[k] = append(want[k], i)
		}
		if err := s.Merge([]*TaskBuffer[k2, int]{buf}); err != nil {
			t.Fatal(err)
		}
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
		got := make(map[k2][]int)
		if err := s.Partition(0).ForEachGroup(func(k k2, vs []int) error {
			if _, dup := got[k]; dup {
				t.Fatalf("spillDir=%q: key %+v emitted as two groups", spillDir, k)
			}
			got[k] = vs
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
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
	buf := s.NewTaskBuffer()
	for i := 0; i < 20; i++ {
		buf.Emit(i%3, i)
	}
	if err := s.Merge([]*TaskBuffer[int, int]{buf}); err != nil {
		t.Fatal(err)
	}
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

	s := New[pk, int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	buf := s.NewTaskBuffer()
	for i := 0; i < 8; i++ {
		buf.Emit(key, i)
	}
	err := s.Merge([]*TaskBuffer[pk, int]{buf})
	if err == nil || !strings.Contains(err.Error(), "cannot spill: key type") {
		t.Fatalf("Merge err = %v, want a key-type rejection", err)
	}

	mem := New[pk, int](Options{Partitions: 2, MaxBufferedPairs: 2})
	buf = mem.NewTaskBuffer()
	for i := 0; i < 8; i++ {
		buf.Emit(key, i)
	}
	if err := mem.Merge([]*TaskBuffer[pk, int]{buf}); err != nil {
		t.Fatalf("in-memory sealing rejected pointer keys: %v", err)
	}
	if got := mem.Partition(mem.PartitionOf(key)).NumKeys(); got != 1 {
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
	buf := s.NewTaskBuffer()
	for i := 0; i < 8; i++ {
		buf.Emit(i%2, lossy{i, i})
	}
	err := s.Merge([]*TaskBuffer[int, lossy]{buf})
	if err == nil || !strings.Contains(err.Error(), "cannot spill: value type") {
		t.Fatalf("Merge err = %v, want a value-type rejection", err)
	}

	// Pointer-valued payloads round-trip as faithful copies.
	sp := New[int, *int](Options{Partitions: 2, MaxBufferedPairs: 2, SpillDir: t.TempDir()})
	defer sp.Close()
	buf2 := sp.NewTaskBuffer()
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i * 10
		buf2.Emit(i%2, &vals[i])
	}
	if err := sp.Merge([]*TaskBuffer[int, *int]{buf2}); err != nil {
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
// merge with a useful error, not corrupt the shuffle silently.
func TestSpillFailureSurfaces(t *testing.T) {
	s := New[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 2,
		SpillDir: filepath.Join(t.TempDir(), "does", "not", "exist"),
	})
	buf := s.NewTaskBuffer()
	for i := 0; i < 16; i++ {
		buf.Emit(i, i)
	}
	err := s.Merge([]*TaskBuffer[int, int]{buf})
	if err == nil {
		t.Fatal("Merge succeeded with a nonexistent spill directory")
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
