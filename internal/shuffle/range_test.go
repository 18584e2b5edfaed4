package shuffle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// rangeRef drains a partition through the whole-partition merge into an
// ordered (key, values) sequence — the reference a range-split read
// must reproduce exactly, order included.
type rangeGroup[K comparable] struct {
	Key K
	Vs  []int
}

func rangeRef[K comparable](t *testing.T, p Partition[K, int]) []rangeGroup[K] {
	t.Helper()
	var ref []rangeGroup[K]
	if err := p.forEachGroup(func(k K, vs []int) error {
		ref = append(ref, rangeGroup[K]{Key: k, Vs: append([]int(nil), vs...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ref
}

// readRanges reads every planned range through one shared RangeReader —
// concurrently, into per-range slots — and concatenates in plan order.
func readRanges[K comparable](t *testing.T, p Partition[K, int], ranges []KeyRange[K]) []rangeGroup[K] {
	t.Helper()
	rr, err := p.OpenRangeReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	perRange := make([][]rangeGroup[K], len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rr.ForEachGroupRange(ranges[i], false, func(k K, vs []int) error {
				perRange[i] = append(perRange[i], rangeGroup[K]{Key: k, Vs: append([]int(nil), vs...)})
				return nil
			})
		}(i)
	}
	wg.Wait()
	var got []rangeGroup[K]
	for i := range ranges {
		if errs[i] != nil {
			t.Fatalf("range %d: %v", i, errs[i])
		}
		got = append(got, perRange[i]...)
	}
	return got
}

// inRange reports whether k falls in r under the canonical order cmp:
// Lo is inside, Hi is not.
func inRange[K comparable](r KeyRange[K], k K, cmp func(a, b K) int) bool {
	return !(r.HasLo && cmp(k, r.Lo) < 0) && !(r.HasHi && cmp(k, r.Hi) >= 0)
}

// checkRangeInvariants: every group of the reference belongs to exactly
// one planned range (inRange), and the planned loads sum to the
// partition totals.
func checkRangeInvariants[K comparable](t *testing.T, ranges []KeyRange[K], ref []rangeGroup[K]) {
	t.Helper()
	cmp := orderOf[K]()
	var pairs, keys int64
	for _, r := range ranges {
		pairs += r.Pairs
		keys += r.Keys
	}
	var wantPairs int64
	for _, g := range ref {
		wantPairs += int64(len(g.Vs))
		owners := 0
		for _, r := range ranges {
			if inRange(r, g.Key, cmp) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %v contained in %d ranges, want exactly 1", g.Key, owners)
		}
	}
	if pairs != wantPairs || keys != int64(len(ref)) {
		t.Fatalf("planned loads sum to %d pairs / %d keys, partition has %d / %d",
			pairs, keys, wantPairs, len(ref))
	}
}

// TestPlanReduceRangesEquivalence is the range-split property test:
// random workloads (spilled and memory-only), random split targets —
// the concatenation of the planned ranges read through a shared
// RangeReader must equal the whole-partition merge byte for byte
// (key order and value order), and every group must fall in exactly
// one range.
func TestPlanReduceRangesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planned := 0
	for trial := 0; trial < 30; trial++ {
		opts := Options{Partitions: 2}
		if trial%2 == 0 {
			opts.MaxBufferedPairs = 4 + rng.Intn(16)
			opts.SpillDir = t.TempDir()
		}
		if trial%4 == 1 {
			opts.MaxBufferedPairs = 8 // sealed in-memory runs, no disk
		}
		s := New[string, int](opts)
		s.SetPartitioner(func(string) int { return 0 })
		nKeys := 1 + rng.Intn(40)
		nPairs := 1 + rng.Intn(400)
		task := make([]Pair[string, int], nPairs)
		for i := range task {
			// Skewed: low key numbers get the bulk of the pairs.
			k := fmt.Sprintf("k%03d", int(float64(nKeys)*rng.Float64()*rng.Float64()))
			task[i] = Pair[string, int]{k, i}
		}
		streamTasks(t, s, [][]Pair[string, int]{task}, 1)
		p := s.Partition(0)
		ref := rangeRef(t, p)
		target := int64(1 + rng.Intn(nPairs))
		maxRanges := 2 + rng.Intn(7)
		ranges := p.PlanReduceRanges(target, maxRanges)
		if ranges == nil {
			s.Close()
			continue
		}
		planned++
		if len(ranges) > maxRanges {
			t.Fatalf("trial %d: %d ranges, cap %d", trial, len(ranges), maxRanges)
		}
		checkRangeInvariants(t, ranges, ref)
		got := readRanges(t, p, ranges)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: range-split read diverges from whole-partition merge", trial)
		}
		s.Close()
	}
	if planned < 10 {
		t.Fatalf("only %d/30 trials produced a split plan; property barely exercised", planned)
	}
}
