package shuffle

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// forEachGroup is ForEachGroupBatch with a fresh value slice per group,
// which fn may keep.
func (p Partition[K, V]) forEachGroup(fn func(k K, vs []V) error) error {
	rr, err := p.OpenRangeReader()
	if err != nil {
		return err
	}
	defer rr.Close()
	return rr.ForEachGroupRange(KeyRange[K]{}, false, fn)
}

// buildBuffers deals pairs across nTasks task outputs round-robin,
// preserving emission order within each task.
func buildBuffers[K comparable, V any](nTasks int, pairs []Pair[K, V]) [][]Pair[K, V] {
	tasks := make([][]Pair[K, V], nTasks)
	for i, p := range pairs {
		tasks[i%nTasks] = append(tasks[i%nTasks], p)
	}
	return tasks
}

// modPairs is the workload most tests share: n pairs, pair i carrying
// value i under key i%keys.
func modPairs(n, keys int) []Pair[int, int] {
	pairs := make([]Pair[int, int], n)
	for i := range pairs {
		pairs[i] = Pair[int, int]{i % keys, i}
	}
	return pairs
}

// checkModGroups requires the partition to hold exactly the groups of
// modPairs(n, keys), each key's values in emission order.
func checkModGroups(t testing.TB, p Partition[int, int], n, keys int) {
	t.Helper()
	want := make(map[int][]int)
	for _, pr := range modPairs(n, keys) {
		want[pr.Key] = append(want[pr.Key], pr.Value)
	}
	if got := partitionGroups(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("partition groups = %v, want %v", got, want)
	}
}

// partitionGroups streams one partition into a map (values copied),
// failing if a key is visited twice.
func partitionGroups[K comparable, V any](t testing.TB, p Partition[K, V]) map[K][]V {
	t.Helper()
	got := make(map[K][]V)
	if err := p.forEachGroup(func(k K, vs []V) error {
		if _, dup := got[k]; dup {
			t.Fatalf("key %v emitted as two groups", k)
		}
		got[k] = append([]V(nil), vs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGroupingMatchesNaiveMerge(t *testing.T) {
	var pairs []Pair[string, int]
	for i := 0; i < 500; i++ {
		pairs = append(pairs, Pair[string, int]{fmt.Sprintf("k%d", i%37), i})
	}
	s := New[string, int](Options{Partitions: 8})
	streamTasks(t, s, buildBuffers(4, pairs), 4)

	// Naive reference grouping in the same task-then-emission order the
	// shuffle guarantees: task 0's pairs first, then task 1's, ...
	want := make(map[string][]int)
	for task := 0; task < 4; task++ {
		for i := task; i < len(pairs); i += 4 {
			want[pairs[i].Key] = append(want[pairs[i].Key], pairs[i].Value)
		}
	}

	got := collectGroups(t, s)
	var totalPairs int64
	for p := 0; p < s.NumPartitions(); p++ {
		totalPairs += s.Partition(p).Pairs()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouped values differ from naive merge")
	}
	if totalPairs != int64(len(pairs)) {
		t.Fatalf("partition pairs sum to %d, want %d", totalPairs, len(pairs))
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsShuffled != int64(len(pairs)) || st.Reducers != 37 {
		t.Fatalf("stats = %+v, want pairs=%d keys=37", st, len(pairs))
	}
	if st.MaxReducerInput < int64(len(pairs))/37 {
		t.Fatalf("MaxReducerInput = %d, too small", st.MaxReducerInput)
	}
}

func TestPartitionCountRoundsToPowerOfTwo(t *testing.T) {
	s := New[int, int](Options{Partitions: 5})
	if s.NumPartitions() != 8 {
		t.Fatalf("NumPartitions = %d, want 8", s.NumPartitions())
	}
	if d := DefaultPartitions(); d&(d-1) != 0 || d < 8 {
		t.Fatalf("DefaultPartitions = %d, want a power of two >= 8", d)
	}
}

func TestHasherIsStableAndSpreads(t *testing.T) {
	h1 := NewStableHasher[string](0)
	h2 := NewStableHasher[string](0)
	if h1.Hash("afrati") != h2.Hash("afrati") {
		t.Fatal("hashers disagree within one process")
	}
	// A hash that collapses to few values would starve partitions.
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[h1.Hash(fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct hashes over 1000 keys", len(seen))
	}
}

func TestStructKeysHashAndSort(t *testing.T) {
	type cell struct{ I, J int }
	s := New[cell, int](Options{Partitions: 4})
	var task []Pair[cell, int]
	for i := 0; i < 10; i++ {
		task = append(task, Pair[cell, int]{cell{i % 3, i % 2}, i})
	}
	streamTasks(t, s, [][]Pair[cell, int]{task}, 1)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reducers != 6 {
		t.Fatalf("Reducers = %d, want 6 distinct cells", st.Reducers)
	}
	keys := []cell{{2, 0}, {0, 1}, {1, 0}, {0, 0}}
	SortKeys(keys)
	want := []cell{{0, 0}, {0, 1}, {1, 0}, {2, 0}}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("SortKeys(struct) = %v, want %v", keys, want)
	}
}

func TestSortKeysTypedPaths(t *testing.T) {
	ints := []int{5, 1, 3}
	SortKeys(ints)
	if !sort.IntsAreSorted(ints) {
		t.Errorf("ints not sorted: %v", ints)
	}
	u64 := []uint64{9, 2, 7}
	SortKeys(u64)
	if !(u64[0] == 2 && u64[1] == 7 && u64[2] == 9) {
		t.Errorf("uint64 not sorted: %v", u64)
	}
	f := []float64{2.5, -1, 0}
	SortKeys(f)
	if !sort.Float64sAreSorted(f) {
		t.Errorf("float64 not sorted: %v", f)
	}
	strs := []string{"b", "a", "c"}
	SortKeys(strs)
	if !sort.StringsAreSorted(strs) {
		t.Errorf("strings not sorted: %v", strs)
	}
}

func TestBoundedMemorySpillPressure(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 10})
	s.SetPartitioner(func(k int) int { return 0 }) // everything in partition 0
	const n = 95
	streamTasks(t, s, [][]Pair[int, int]{modPairs(n, 7)}, 1)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Sealing at the budget is deterministic: 95 pairs against a
	// 10-pair budget seal exactly 9 runs of 10, leaving 5 live.
	if st.SpillEvents != 9 {
		t.Errorf("SpillEvents = %d, want exactly 9 runs of 10", st.SpillEvents)
	}
	if st.SpilledPairs != 90 || s.parts[0].livePairs != 5 {
		t.Errorf("spilled %d, live %d; want 90 and 5", st.SpilledPairs, s.parts[0].livePairs)
	}
	if st.MaxLivePairs != 10 {
		t.Errorf("MaxLivePairs = %d, want exactly the 10-pair budget", st.MaxLivePairs)
	}
	if st.RunsMerged != 10 {
		t.Errorf("RunsMerged = %d, want 10 (9 sealed + live)", st.RunsMerged)
	}
	if st.PairsShuffled != n || st.Reducers != 7 {
		t.Errorf("stats = %+v, want pairs=%d keys=7", st, n)
	}

	// Grouping must be unaffected by sealing: values concatenate across
	// runs in emission order.
	checkModGroups(t, s.Partition(0), n, 7)
	if got := s.Partition(1).Pairs(); got != 0 {
		t.Errorf("partition 1 has %d pairs, want 0", got)
	}
}

func TestSetPartitionerRouting(t *testing.T) {
	s := New[string, int](Options{Partitions: 4})
	s.SetPartitioner(func(k string) int { return len(k) })
	streamTasks(t, s, [][]Pair[string, int]{{
		{"a", 1},     // len 1 -> partition 1
		{"bb", 2},    // len 2 -> partition 2
		{"ccccc", 3}, // len 5 % 4 -> partition 1
	}}, 1)
	if got := len(partitionGroups(t, s.Partition(1))); got != 2 {
		t.Errorf("partition 1 keys = %d, want 2", got)
	}
	if got := len(partitionGroups(t, s.Partition(2))); got != 1 {
		t.Errorf("partition 2 keys = %d, want 1", got)
	}
	if got := s.Partition(0).Pairs() + s.Partition(3).Pairs(); got != 0 {
		t.Errorf("partitions 0,3 hold %d pairs, want 0", got)
	}
}

func TestEmptyShuffle(t *testing.T) {
	s := New[string, int](Options{})
	streamTasks[string, int](t, s, nil, 1)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsShuffled != 0 || st.Reducers != 0 || st.MaxReducerInput != 0 {
		t.Fatalf("empty shuffle stats = %+v", st)
	}
	if got := partitionGroups(t, s.Partition(0)); len(got) != 0 {
		t.Fatalf("groups on empty partition = %v", got)
	}
}

// Pairs is the number of pairs the partition holds.
func (p Partition[K, V]) Pairs() int64 { return p.s.parts[p.idx].pairs }
