package shuffle

import (
	"reflect"
	"testing"
)

// TestForEachGroupBatchMatchesPerGroup: the batch read contract must
// change only allocation behavior — keys, key order, values and value
// order are identical to forEachGroup, across spilled and in-memory
// partitions, struct values included.
func TestForEachGroupBatchMatchesPerGroup(t *testing.T) {
	type pay struct {
		A int64
		B float64
	}
	for _, spillDir := range []string{"", t.TempDir()} {
		s := New[int, pay](Options{Partitions: 4, MaxBufferedPairs: 8, SpillDir: spillDir})
		pairs := make([]Pair[int, pay], 400)
		for i := range pairs {
			pairs[i] = Pair[int, pay]{i % 19, pay{A: int64(i), B: float64(i) / 4}}
		}
		streamTasks(t, s, buildBuffers(3, pairs), 3)
		type group struct {
			k  int
			vs []pay
		}
		for p := 0; p < s.NumPartitions(); p++ {
			var plain, batch []group
			if err := s.Partition(p).forEachGroup(func(k int, vs []pay) error {
				plain = append(plain, group{k, vs})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.Partition(p).ForEachGroupBatch(func(k int, vs []pay) error {
				// The slice is only valid during the call: copy to keep.
				batch = append(batch, group{k, append([]pay(nil), vs...)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, batch) {
				t.Fatalf("spillDir=%q partition %d: batch read diverges from per-group read", spillDir, p)
			}
		}
		s.Close()
	}
}

// TestForEachGroupBatchArenaAliasing pins the other half of the batch
// contract: the value slice is a view into reused scratch (and, for
// mapped run files, ultimately into memory that may be unmapped after
// the walk), valid only during the callback. A reducer that retains
// the previous group's slice across callbacks must observe it corrupt
// — loudly diverging from a copied snapshot — rather than silently
// holding stale-but-plausible data. If this test ever fails, the read
// path started copying per group and the zero-copy contract (and its
// allocation win) has quietly regressed.
func TestForEachGroupBatchArenaAliasing(t *testing.T) {
	const keys, perKey = 16, 32
	// Equal-size groups of a fixed-size value type: every group's batch
	// decodes into the same-capacity scratch, so reuse is guaranteed to
	// overwrite the previous group's view.
	s := New[int, int](Options{Partitions: 1, MaxBufferedPairs: 8, SpillDir: t.TempDir()})
	defer s.Close()
	streamTasks(t, s, [][]Pair[int, int]{modPairs(keys*perKey, keys)}, 1)

	var retained, snapshot []int
	diverged := false
	err := s.Partition(0).ForEachGroupBatch(func(_ int, vs []int) error {
		if retained != nil && !reflect.DeepEqual(retained, snapshot) {
			diverged = true
		}
		retained = vs // illegally kept past this callback
		snapshot = append(snapshot[:0], vs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatal("retained batch slice survived across callbacks intact: " +
			"the read path is copying per group instead of reusing scratch")
	}
}
