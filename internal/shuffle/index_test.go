package shuffle

import (
	"reflect"
	"testing"
)

// buildSpilled fills a one-partition shuffle with n pairs over nKeys
// keys (values i for key i%nKeys) under the given budget and returns
// it unclosed. Compaction is inline, so the disk-run shapes the
// compaction tests pin are exact.
func buildSpilled(t *testing.T, budget, n, nKeys int, combiner func(int, []int) []int) *Shuffle[int, int] {
	t.Helper()
	s := newTuned[int, int](Options{
		Partitions: 2, MaxBufferedPairs: budget, SpillDir: t.TempDir(),
	}, tuning{compactors: -1})
	s.SetPartitioner(func(int) int { return 0 })
	if combiner != nil {
		s.SetCombiner(combiner)
	}
	streamTasks(t, s, [][]Pair[int, int]{modPairs(n, nKeys)}, 1)
	return s
}

func sumCombiner(_ int, vs []int) []int {
	total := 0
	for _, v := range vs {
		total += v
	}
	return []int{total}
}

// TestCountingPassIsMemoryOnly is the acceptance test for the indexed
// run files: with spilling active, Stats and every other counting API
// perform zero run-file reads — only the value-streaming merge touches
// disk.
func TestCountingPassIsMemoryOnly(t *testing.T) {
	s := buildSpilled(t, 16, 400, 23, nil)
	defer s.Close()
	if got := s.DiskBytesRead(); got != 0 {
		t.Fatalf("DiskBytesRead = %d after ingestion without compaction, want 0", got)
	}

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSpilled == 0 || st.SpillEvents == 0 {
		t.Fatalf("workload never spilled: %+v", st)
	}
	if st.PairsShuffled != 400 || st.Reducers != 23 {
		t.Fatalf("stats = pairs %d keys %d, want 400 and 23", st.PairsShuffled, st.Reducers)
	}
	part := s.Partition(0)
	var counted, keys int
	if err := part.ForEachGroupCount(func(_ int, count int) error {
		counted += count
		keys++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counted != 400 || keys != 23 {
		t.Fatalf("ForEachGroupCount saw %d pairs in %d groups, want 400 in 23", counted, keys)
	}
	if ranges := part.PlanReduceRanges(100, 4); len(ranges) < 2 {
		t.Fatalf("PlanReduceRanges planned %d ranges, want a split", len(ranges))
	}
	if st.DiskBytesRead != 0 || s.DiskBytesRead() != 0 {
		t.Fatalf("counting pass read %d bytes from disk, want 0", s.DiskBytesRead())
	}

	// The value-streaming merge is the only disk consumer.
	var pairs int
	if err := part.forEachGroup(func(_ int, vs []int) error {
		pairs += len(vs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pairs != 400 {
		t.Fatalf("streamed %d pairs, want 400", pairs)
	}
	read := s.DiskBytesRead()
	if read == 0 {
		t.Fatal("value merge reported zero disk reads on a spilled partition")
	}
	// The memoized Stats refreshes the read counter but nothing else.
	st2, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.DiskBytesRead != read {
		t.Errorf("Stats.DiskBytesRead = %d, want %d", st2.DiskBytesRead, read)
	}
	if st2.PairsShuffled != st.PairsShuffled || st2.Reducers != st.Reducers || st2.BytesSpilled != st.BytesSpilled {
		t.Errorf("memoized stats diverge: %+v vs %+v", st2, st)
	}
}

// TestCompactionFanInBoundaries pins the compaction trigger at the
// run-count bound (a partition's seals share one spool, so the bound
// that fires is maxDiskRunsPerPartition): exactly that many seals
// collapse to one run, one more seal starts the next tier at two runs —
// and both shapes stream back the reference grouping.
func TestCompactionFanInBoundaries(t *testing.T) {
	const bound = maxDiskRunsPerPartition
	for _, seals := range []int{bound, bound + 1} {
		const budget = 2
		n := seals * budget
		s := buildSpilled(t, budget, n, 7, nil)
		disk := s.parts[0].disk
		wantRuns := 1
		if seals > bound {
			wantRuns = 2
		}
		if len(disk) != wantRuns {
			t.Fatalf("%d seals: %d disk runs, want %d", seals, len(disk), wantRuns)
		}
		if disk[0].pairs != int64(bound*budget) {
			t.Errorf("%d seals: first run holds %d pairs, want %d",
				seals, disk[0].pairs, bound*budget)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillEvents != int64(seals) || st.PairsShuffled != int64(n) || st.Reducers != 7 {
			t.Errorf("%d seals: stats = %+v", seals, st)
		}
		checkModGroups(t, s.Partition(0), n, 7)
		s.Close()
	}
}

// TestCombinerPushDownShrinksSpill: the same over-budget workload with
// the combiner pushed down must spill far fewer bytes and pairs, while
// the reduced totals (sums per key) stay identical.
func TestCombinerPushDownShrinksSpill(t *testing.T) {
	const (
		budget = 16
		n      = 800
		nKeys  = 5
	)
	raw := buildSpilled(t, budget, n, nKeys, nil)
	defer raw.Close()
	combined := buildSpilled(t, budget, n, nKeys, sumCombiner)
	defer combined.Close()

	rawSt, err := raw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	combSt, err := combined.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rawSt.BytesSpilled == 0 {
		t.Fatal("raw workload never spilled; test is vacuous")
	}
	if combSt.BytesSpilled*4 > rawSt.BytesSpilled {
		t.Errorf("combiner push-down barely shrank spill: %d vs %d bytes",
			combSt.BytesSpilled, rawSt.BytesSpilled)
	}
	if combSt.SpilledPairs >= rawSt.SpilledPairs {
		t.Errorf("SpilledPairs with combiner = %d, want < %d", combSt.SpilledPairs, rawSt.SpilledPairs)
	}
	if combSt.Reducers != int64(nKeys) {
		t.Errorf("combiner changed the key count: %d, want %d", combSt.Reducers, nKeys)
	}

	// The combined groups must sum to the raw groups' sums, and the
	// partition totals must equal the sum of its group counts.
	sums := func(s *Shuffle[int, int]) (map[int]int, int64) {
		out := make(map[int]int)
		var pairs int64
		if err := s.Partition(0).forEachGroup(func(k int, vs []int) error {
			total := 0
			for _, v := range vs {
				total += v
			}
			out[k] = total
			pairs += int64(len(vs))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out, pairs
	}
	rawSums, rawPairs := sums(raw)
	combSums, combPairs := sums(combined)
	if !reflect.DeepEqual(rawSums, combSums) {
		t.Fatalf("per-key sums diverge:\nraw  %v\ncomb %v", rawSums, combSums)
	}
	if rawPairs != rawSt.PairsShuffled || combPairs != combSt.PairsShuffled {
		t.Errorf("Stats.PairsShuffled out of sync with streamed groups: raw %d/%d, combined %d/%d",
			rawSt.PairsShuffled, rawPairs, combSt.PairsShuffled, combPairs)
	}
	if combSt.PairsShuffled >= rawSt.PairsShuffled {
		t.Errorf("combined partition holds %d pairs, want < %d", combSt.PairsShuffled, rawSt.PairsShuffled)
	}
}

// TestCombinerSkipsSealWhenCombineFrees: when combining collapses the
// live run well under the budget, the seal is cancelled — a workload
// whose combined footprint fits in memory never touches disk at all,
// no matter how many raw pairs stream through.
func TestCombinerSkipsSealWhenCombineFrees(t *testing.T) {
	const budget = 16
	s := buildSpilled(t, budget, 5000, 3, sumCombiner) // 3 combined pairs << budget/2
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillEvents != 0 || st.BytesSpilled != 0 {
		t.Fatalf("combined-in-memory workload spilled: %+v", st)
	}
	if st.MaxLivePairs > budget {
		t.Fatalf("MaxLivePairs = %d exceeds budget %d", st.MaxLivePairs, budget)
	}
	// The live run holds the 3 combined partials plus whatever raw
	// pairs arrived after the last combine — never more than the budget.
	if st.Reducers != 3 || st.PairsShuffled < 3 || st.PairsShuffled > budget {
		t.Fatalf("stats = pairs %d keys %d, want 3 keys and <= %d pairs", st.PairsShuffled, st.Reducers, budget)
	}
	var total int
	if err := s.Partition(0).forEachGroup(func(_ int, vs []int) error {
		for _, v := range vs {
			total += v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := 5000 * 4999 / 2; total != want {
		t.Fatalf("combined total = %d, want %d", total, want)
	}
}

// TestCombinerRecombinesAcrossCompaction drives enough combined seals
// to trigger compaction, which must re-combine the folded groups: the
// compacted run ends up with one partial per key, and the streamed
// sums match the arithmetic reference.
func TestCombinerRecombinesAcrossCompaction(t *testing.T) {
	const (
		budget = 2
		nKeys  = 2
		// Each seal holds ~2 combined partials, so this forces more seals
		// than the run-count bound and at least one compaction.
		n = 4 * maxDiskRunsPerPartition * budget
	)
	s := buildSpilled(t, budget, n, nKeys, sumCombiner)
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillEvents < maxDiskRunsPerPartition {
		t.Fatalf("only %d seals; compaction never triggered", st.SpillEvents)
	}
	disk := s.parts[0].disk
	if len(disk) >= maxDiskRunsPerPartition {
		t.Fatalf("%d disk runs; compaction should cap below %d", len(disk), maxDiskRunsPerPartition)
	}
	// The compacted run re-combined each key to a single partial.
	if len(disk[0].index) != nKeys {
		t.Fatalf("compacted run has %d groups, want %d", len(disk[0].index), nKeys)
	}
	for _, e := range disk[0].index {
		if e.count != 1 {
			t.Fatalf("compacted group for key %d holds %d partials, want 1 (re-combined)", e.key, e.count)
		}
	}
	sums := make(map[int]int)
	var pairs int64
	if err := s.Partition(0).forEachGroup(func(k int, vs []int) error {
		for _, v := range vs {
			sums[k] += v
		}
		pairs += int64(len(vs))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pairs != st.PairsShuffled {
		t.Errorf("Stats.PairsShuffled = %d but streaming saw %d (compaction must keep totals in sync)", st.PairsShuffled, pairs)
	}
	want := make(map[int]int)
	for i := 0; i < n; i++ {
		want[i%nKeys] += i
	}
	if !reflect.DeepEqual(sums, want) {
		t.Fatalf("sums diverge after compaction re-combine:\ngot  %v\nwant %v", sums, want)
	}
}
