package shuffle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
	if err := p.ForEachGroup(func(k K, vs []int) error {
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

// checkRangeInvariants: every group of the reference belongs to exactly
// one planned range (Contains), the planned loads sum to the partition
// totals, and bounds sit on class starts.
func checkRangeInvariants[K comparable](t *testing.T, ranges []KeyRange[K], ref []rangeGroup[K]) {
	t.Helper()
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
			if r.Contains(g.Key) {
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

// TestRangeSplitCollidingKeys pins the fallback-comparator tie case:
// distinct keys of an unplannable kind whose fmt.Sprint forms collide
// are one order-equivalence class — a split boundary must never land
// between them, they stay two separate ==-membership groups, and the
// split read still reproduces the unsplit merge. (Such keys cannot
// spill, so the runs are the in-memory sealed ones.)
func TestRangeSplitCollidingKeys(t *testing.T) {
	colliders := []keyLoose{{1}, {"1"}} // both format as "{1}"
	s := New[keyLoose, int](Options{Partitions: 2, MaxBufferedPairs: 5})
	defer s.Close()
	s.SetPartitioner(func(keyLoose) int { return 0 })
	var task []Pair[keyLoose, int]
	// The colliding class carries most of the load, so a naive planner
	// chasing the target would want to cut inside it.
	for i := 0; i < 120; i++ {
		task = append(task, Pair[keyLoose, int]{colliders[i%2], i})
	}
	for i := 0; i < 30; i++ {
		task = append(task,
			Pair[keyLoose, int]{keyLoose{fmt.Sprint("0x", i%5)}, i},
			Pair[keyLoose, int]{keyLoose{fmt.Sprint("zz", i%3)}, i})
	}
	streamTasks(t, s, [][]Pair[keyLoose, int]{task}, 1)
	p := s.Partition(0)
	ref := rangeRef(t, p)
	ranges := p.PlanReduceRanges(20, 8)
	if ranges == nil {
		t.Fatal("no split planned; test exercises nothing")
	}
	checkRangeInvariants(t, ranges, ref)
	// Both colliders must fall in the same range.
	owner := -1
	for i, r := range ranges {
		if r.Contains(colliders[0]) {
			owner = i
		}
	}
	if owner < 0 || !ranges[owner].Contains(colliders[1]) {
		t.Fatalf("colliding keys straddle ranges: %+v owns collider 0, collider 1 elsewhere", owner)
	}
	// Tied keys surface in whatever relative order their in-memory runs
	// happened to sort them (the fallback order does not separate them,
	// and each read re-sorts the runs), so fix that order before
	// comparing the two reads group for group.
	tieBreak := func(gs []rangeGroup[keyLoose]) []rangeGroup[keyLoose] {
		sort.SliceStable(gs, func(i, j int) bool {
			a, b := fmt.Sprint(gs[i].Key), fmt.Sprint(gs[j].Key)
			return a < b || a == b && fmt.Sprintf("%T", gs[i].Key.V) < fmt.Sprintf("%T", gs[j].Key.V)
		})
		return gs
	}
	got := readRanges(t, p, ranges)
	if !reflect.DeepEqual(tieBreak(got), tieBreak(ref)) {
		t.Fatal("range-split read diverges from whole-partition merge on colliding keys")
	}
	// The colliders surfaced as two distinct groups inside one range.
	seen := 0
	for _, g := range got {
		if g.Key == colliders[0] || g.Key == colliders[1] {
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("colliding class surfaced %d groups, want 2", seen)
	}
}
