package shuffle

import (
	"fmt"
	"reflect"
	"testing"
)

// collidingKeys drives distinct keys that format alike — plus a third
// key population — through enough seals to build many runs, then checks
// the merged read yields exactly one group per actual key with the
// reference value sequence.
func collidingKeys[K comparable](t *testing.T, s *Shuffle[K, int], colliders [2]K, other func(i int) K) {
	t.Helper()
	s.SetPartitioner(func(K) int { return 0 })
	var task []Pair[K, int]
	want := make(map[K][]int)
	// Unequal per-seal group sizes for the two colliders, across enough
	// seals to force compaction at the run-count bound when runs go to
	// disk.
	n := 3 * (maxDiskRunsPerPartition + 5)
	for i := 0; i < n; i++ {
		k := colliders[i%3%2] // 2 of every 3 pairs to collider 0, 1 to collider 1
		if i%7 == 0 {
			k = other(i % 4)
		}
		task = append(task, Pair[K, int]{k, i})
		want[k] = append(want[k], i)
	}
	streamTasks(t, s, [][]Pair[K, int]{task}, 1)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != int64(len(want)) {
		t.Errorf("Stats.Keys = %d, want %d", st.Keys, len(want))
	}
	if got := partitionGroups(t, s.Partition(0)); !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values diverge from reference for keys that format alike")
	}
}

// TestCompactionWithFormatAlikeKeys: distinct struct keys whose
// fmt.Sprint forms collide used to sort as order-equals. They have a
// key plan, which tells them apart field-wise, so compaction — which
// folds the runs sitting on the heap's minimum key — must keep them two
// groups through every rewrite.
func TestCompactionWithFormatAlikeKeys(t *testing.T) {
	type k2 struct{ A, B string }
	s := New[k2, int](Options{Partitions: 2, MaxBufferedPairs: 3, SpillDir: t.TempDir()})
	defer s.Close()
	collidingKeys(t, s, [2]k2{{"a b", "c"}, {"a", "b c"}}, // both format as "{a b c}"
		func(i int) k2 { return k2{"z", fmt.Sprint(i)} })
	if got := len(s.parts[0].disk); got >= maxDiskRunsPerPartition {
		t.Fatalf("%d disk runs; compaction never triggered", got)
	}
}

// TestMergeWithCollidingFormattedKeys: keys of a kind no plan covers
// (an interface field) order by formatted value, so {1} and {"1"} are
// one order-equivalence class, and each sealed run may hold them in
// either relative order (sortedMapKeys' sort is not stable across
// fmt-equal keys). The merge must drain the whole class and regroup it
// by == — it cannot assume a run contributes at most one group per
// class, nor consume a run's groups out of run order. Such keys cannot
// spill, so the runs are the in-memory sealed ones.
func TestMergeWithCollidingFormattedKeys(t *testing.T) {
	s := New[keyLoose, int](Options{Partitions: 2, MaxBufferedPairs: 3})
	defer s.Close()
	collidingKeys(t, s, [2]keyLoose{{1}, {"1"}}, func(i int) keyLoose { return keyLoose{fmt.Sprint("z", i)} })
	if got := len(s.parts[0].runs); got < maxDiskRunFanIn {
		t.Fatalf("only %d sealed runs; the merge was not exercised", got)
	}
}
