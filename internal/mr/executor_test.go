package mr

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shuffle"
)

// These tests exercise the paper-facing Job API specifically through
// the partitioned shuffle executor: partition-pinned overflow, fault
// injection across partition boundaries, per-partition metrics, and the
// bounded-memory mode.

func TestOverflowWhenKeyIsAloneInItsPartition(t *testing.T) {
	// The partition-boundary case: the overflowing key is the only key
	// in its partition, so the limit must be enforced from that
	// partition's own stats.
	job := &Job[int, int, int, int]{
		Name:             "boundary",
		Map:              func(x int, emit func(int, int)) { emit(x, x) },
		Reduce:           func(k int, vs []int, emit func(int)) { emit(len(vs)) },
		ShufflePartition: func(k int) int { return k }, // key k -> partition k
		Config:           Config{Partitions: 2, MaxReducerInput: 3},
	}
	inputs := []int{0, 0, 0, 0, 1} // key 0: 4 values in partition 0, alone
	_, met, err := job.Run(inputs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if !strings.Contains(err.Error(), `job "boundary" saw reducer with 4 inputs, limit 3`) {
		t.Errorf("error text = %q", err)
	}
	if met.MaxReducerInput != 4 || met.Reducers != 2 {
		t.Errorf("metrics at failure: %+v", met)
	}

	// RecordLoads survives the overflow path (the seed runtime also
	// reported per-reducer loads on a failed run).
	job.Config.RecordLoads = true
	_, met, err = job.Run(inputs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(met.ReducerLoads, []int{4, 1}) {
		t.Errorf("ReducerLoads at failure = %v, want [4 1]", met.ReducerLoads)
	}
	job.Config.RecordLoads = false

	// At the limit exactly the run succeeds and outputs stay sorted.
	job.Config.MaxReducerInput = 4
	out, _, err := job.Run(inputs)
	if err != nil {
		t.Fatalf("at limit: %v", err)
	}
	if !reflect.DeepEqual(out, []int{4, 1}) {
		t.Errorf("outputs = %v, want [4 1] (keys 0 then 1)", out)
	}
}

func TestFaultInjectionAcrossPartitions(t *testing.T) {
	docs := []string{"a b", "b c", "c d", "d e", "e f", "f g"}
	clean, _, err := wordCountJob(Config{Workers: 3}).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 8, 64} {
		faulty := wordCountJob(Config{
			Workers: 3, MapChunk: 1, Partitions: parts,
			FailureEveryN: 2, MaxRetries: 3,
		})
		out, met, err := faulty.Run(docs)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		if !reflect.DeepEqual(out, clean) {
			t.Errorf("P=%d: outputs diverge under injection", parts)
		}
		if met.MapRetries == 0 || met.ReduceRetries == 0 {
			t.Errorf("P=%d: retries = map %d, reduce %d; want both > 0",
				parts, met.MapRetries, met.ReduceRetries)
		}
		if met.PairsEmitted != 12 {
			t.Errorf("P=%d: PairsEmitted = %d, want 12 (no double count)", parts, met.PairsEmitted)
		}
	}
}

func TestFaultInjectionWithOverflowStillDetected(t *testing.T) {
	// Retries and the q limit interact: the retried map tasks must not
	// inflate group sizes past the limit, and a genuine overflow must
	// still surface after recovery.
	ok := wordCountJob(Config{MaxReducerInput: 4, FailureEveryN: 2, MaxRetries: 3, MapChunk: 1})
	if _, _, err := ok.Run([]string{"a a", "a a"}); err != nil {
		t.Fatalf("4 inputs at limit 4 should pass despite retries: %v", err)
	}
	bad := wordCountJob(Config{MaxReducerInput: 3, FailureEveryN: 2, MaxRetries: 3, MapChunk: 1})
	if _, _, err := bad.Run([]string{"a a", "a a"}); !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
}

func TestPartitionMetricsExposed(t *testing.T) {
	job := wordCountJob(Config{Partitions: 4, Workers: 2})
	_, met, err := job.Run([]string{"a b c d e f g h i j"})
	if err != nil {
		t.Fatal(err)
	}
	if len(met.Partitions) != 4 {
		t.Fatalf("Partitions = %d entries, want 4", len(met.Partitions))
	}
	var pairs, keys int64
	for _, ps := range met.Partitions {
		pairs += ps.Pairs
		keys += ps.Keys
	}
	if pairs != met.PairsShuffled || keys != met.Reducers {
		t.Errorf("partition sums (%d, %d) != totals (%d, %d)", pairs, keys, met.PairsShuffled, met.Reducers)
	}
	if met.Makespan < met.IdealMakespan || met.IdealMakespan <= 0 {
		t.Errorf("makespan %d, ideal %d", met.Makespan, met.IdealMakespan)
	}
	if met.PartitionSkew() < 1 {
		t.Errorf("PartitionSkew = %v, want >= 1", met.PartitionSkew())
	}
}

func TestBoundedMemoryModeThroughJob(t *testing.T) {
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = "x y"
	}
	job := wordCountJob(Config{Partitions: 2, MemoryBudget: 8})
	out, met, err := job.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	// 128 pairs against an 8-pair budget seal exactly 16 runs whether
	// the two keys share a partition (16 seals there) or split (8
	// each), so the spill profile is exact despite hash placement.
	if met.SpillEvents != 16 || met.SpilledPairs != 128 {
		t.Errorf("spill profile = %d events, %d pairs; want 16 and 128", met.SpillEvents, met.SpilledPairs)
	}
	if met.MaxLivePairs != 8 {
		t.Errorf("MaxLivePairs = %d, want exactly the 8-pair budget", met.MaxLivePairs)
	}
	want := []string{"x=64", "y=64"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v (grouping must survive sealed runs)", out, want)
	}
}

func TestDiskSpillThroughJob(t *testing.T) {
	// MemoryBudget + SpillDir on the public Job API: a dataset 4x the
	// total budget completes with identical outputs and logical
	// metrics, nonzero disk traffic, and the live buffer bounded.
	const parts, budget = 2, 64
	docs := make([]string, 4*parts*budget)
	for i := range docs {
		docs[i] = "k" + itoa(i%13)
	}
	countJob := func(cfg Config) *Job[string, string, int, string] {
		return &Job[string, string, int, string]{
			Name:   "occurrences",
			Map:    func(w string, emit func(string, int)) { emit(w, 1) },
			Reduce: func(w string, vs []int, emit func(string)) { emit(w + "=" + itoa(len(vs))) },
			Config: cfg,
		}
	}
	base, baseMet, err := countJob(Config{Partitions: parts}).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	out, met, err := countJob(Config{
		Partitions: parts, MemoryBudget: budget, SpillDir: t.TempDir(),
	}).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, base) {
		t.Errorf("spilled outputs diverge: %v vs %v", out, base)
	}
	if met.BytesSpilled == 0 || met.SpillEvents == 0 {
		t.Errorf("no disk spill on a 4x-budget dataset: %+v", met)
	}
	if met.MaxLivePairs > budget {
		t.Errorf("MaxLivePairs = %d exceeds budget %d", met.MaxLivePairs, budget)
	}
	if met.RunsMerged == 0 {
		t.Error("RunsMerged = 0, want multi-run reduce merges")
	}
	if met.DiskBytesRead == 0 {
		t.Error("DiskBytesRead = 0, want the reduce merge's spill reads surfaced")
	}
	if baseMet.DiskBytesRead != 0 {
		t.Errorf("in-memory run reported DiskBytesRead = %d, want 0", baseMet.DiskBytesRead)
	}
	if met.Reducers != baseMet.Reducers || met.PairsShuffled != baseMet.PairsShuffled ||
		met.MaxReducerInput != baseMet.MaxReducerInput {
		t.Errorf("logical metrics diverge under spill:\nbase  %+v\nspill %+v", baseMet, met)
	}
}

func TestPinnedSeedMakesPhysicalProfileDeterministic(t *testing.T) {
	// Under shuffle.WithSeed the *physical* profile — which partition
	// every key lands in, and therefore Partitions, Makespan and spill
	// counts — is reproducible: identical across runs, and equal to a
	// placement replayed with an independently created pinned hasher.
	restore := shuffle.WithSeed(7)
	defer restore()

	docs := []string{"a b c d e f g h i j k l m n o p", "a b c d a b c d"}
	cfg := Config{Partitions: 4, Workers: 2, MemoryBudget: 4}
	_, met1, err := wordCountJob(cfg).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	_, met2, err := wordCountJob(cfg).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(met1.Partitions, met2.Partitions) {
		t.Errorf("pinned-seed partition profiles differ:\n%+v\n%+v", met1.Partitions, met2.Partitions)
	}
	if met1.Makespan != met2.Makespan || met1.SpillEvents != met2.SpillEvents ||
		met1.SpilledPairs != met2.SpilledPairs || met1.MaxLivePairs != met2.MaxLivePairs {
		t.Errorf("pinned-seed physical metrics differ:\n%+v\n%+v", met1, met2)
	}

	// Replay placement with a fresh pinned hasher: per-partition pair
	// counts must match the executor's reported profile exactly.
	h := shuffle.NewHasher[string]()
	wantPairs := make([]int64, 4)
	for _, doc := range docs {
		for _, w := range strings.Fields(doc) {
			wantPairs[h.Hash(w)&3]++
		}
	}
	for p, ps := range met1.Partitions {
		if ps.Pairs != wantPairs[p] {
			t.Errorf("partition %d pairs = %d, replayed placement says %d", p, ps.Pairs, wantPairs[p])
		}
	}
}

func TestShufflePartitionDoesNotChangeResults(t *testing.T) {
	docs := []string{"b a c a", "c b a"}
	base, baseMet, err := wordCountJob(Config{}).Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	pinned := wordCountJob(Config{Partitions: 4})
	pinned.ShufflePartition = func(w string) int { return int(w[0]) }
	out, met, err := pinned.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, base) {
		t.Errorf("pinned layout changed outputs: %v vs %v", out, base)
	}
	if met.Reducers != baseMet.Reducers || met.PairsShuffled != baseMet.PairsShuffled {
		t.Errorf("pinned layout changed logical metrics: %+v vs %+v", met, baseMet)
	}
}

func TestRunPipelineThreeRounds(t *testing.T) {
	// Tokenize -> count -> histogram: an N=3 pipeline through the
	// generalized Chain.
	tokenize := &Job[string, string, int, string]{
		Name: "tokenize",
		Map: func(doc string, emit func(string, int)) {
			for _, w := range strings.Fields(doc) {
				emit(w, 1)
			}
		},
		Reduce: func(w string, counts []int, emit func(string)) {
			for range counts {
				emit(w)
			}
		},
	}
	count := &Job[string, string, int, Pair[string, int]]{
		Name: "count",
		Map:  func(w string, emit func(string, int)) { emit(w, 1) },
		Reduce: func(w string, counts []int, emit func(Pair[string, int])) {
			emit(Pair[string, int]{w, len(counts)})
		},
	}
	histogram := &Job[Pair[string, int], int, int, Pair[int, int]]{
		Name: "histogram",
		Map:  func(p Pair[string, int], emit func(int, int)) { emit(p.Value, 1) },
		Reduce: func(n int, ones []int, emit func(Pair[int, int])) {
			emit(Pair[int, int]{n, len(ones)})
		},
	}
	out, pipe, err := RunPipeline([]string{"a b a", "b b c"},
		RoundOf(tokenize), RoundOf(count), RoundOf(histogram))
	if err != nil {
		t.Fatal(err)
	}
	// Counts a=2 b=3 c=1: one word each of count 1, 2, 3.
	want := []Pair[int, int]{{1, 1}, {2, 1}, {3, 1}}
	if !reflect.DeepEqual(out.([]Pair[int, int]), want) {
		t.Errorf("outputs = %v, want %v", out, want)
	}
	if len(pipe.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(pipe.Rounds))
	}
	if pipe.Rounds[1].Name != "count" {
		t.Errorf("round order: %v", pipe.Rounds)
	}
	if pipe.TotalCommunication() != pipe.Rounds[0].Metrics.PairsShuffled+
		pipe.Rounds[1].Metrics.PairsShuffled+pipe.Rounds[2].Metrics.PairsShuffled {
		t.Error("TotalCommunication does not sum all three rounds")
	}
}

func TestRunPipelineTypeMismatch(t *testing.T) {
	ints := &Job[int, int, int, int]{
		Name:   "ints",
		Map:    func(x int, emit func(int, int)) { emit(x, x) },
		Reduce: func(k int, _ []int, emit func(int)) { emit(k) },
	}
	strs := &Job[string, string, int, string]{
		Name:   "strings",
		Map:    func(s string, emit func(string, int)) { emit(s, 1) },
		Reduce: func(k string, _ []int, emit func(string)) { emit(k) },
	}
	_, pipe, err := RunPipeline([]int{1, 2}, RoundOf(ints), RoundOf(strs))
	if err == nil || !strings.Contains(err.Error(), "expects []string") {
		t.Fatalf("err = %v, want type mismatch naming []string", err)
	}
	if len(pipe.Rounds) != 1 {
		t.Errorf("recorded %d rounds, want 1 (the successful first)", len(pipe.Rounds))
	}
}

func TestStreamingMemoryBoundThroughJob(t *testing.T) {
	// The whole-round bounded-memory guarantee on the public Job API: a
	// dataset many times the total budget, mapped by concurrent workers
	// on the default streaming path, keeps peak resident pairs within
	// P*MemoryBudget + workers*BlockPairs (BlockPairs defaults to half
	// the budget), and reports the map/spill overlap metrics.
	const parts, budget, workers = 2, 64, 4
	blockPairs := budget / 2
	docs := make([]string, 16*parts*budget)
	for i := range docs {
		docs[i] = "k" + itoa(i%23)
	}
	job := &Job[string, string, int, string]{
		Name:   "streaming-bound",
		Map:    func(w string, emit func(string, int)) { emit(w, 1) },
		Reduce: func(w string, vs []int, emit func(string)) { emit(w + "=" + itoa(len(vs))) },
		Config: Config{
			Partitions: parts, Workers: workers,
			MemoryBudget: budget, SpillDir: t.TempDir(),
		},
	}
	out, met, err := job.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 23 {
		t.Fatalf("outputs = %d keys, want 23", len(out))
	}
	if met.BytesSpilled == 0 {
		t.Fatal("16x-budget dataset never spilled")
	}
	bound := int64(parts*budget + workers*blockPairs)
	if met.PeakResidentPairs <= 0 || met.PeakResidentPairs > bound {
		t.Errorf("PeakResidentPairs = %d, want in (0, %d]: whole-round residency must track the budget, not the %d-pair dataset",
			met.PeakResidentPairs, bound, len(docs))
	}
	if met.SpillOverlapNs <= 0 {
		t.Error("SpillOverlapNs = 0: no shuffle work overlapped the map phase")
	}

}
