package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func wordCountRound(cfg Config) Round[string, string, int, string] {
	return Round[string, string, int, string]{
		Name: "wordcount",
		Map: func(doc string, emit func(string, int)) {
			for _, w := range strings.Fields(doc) {
				emit(w, 1)
			}
		},
		Reduce: func(w string, counts []int, emit func(string)) {
			total := 0
			for _, c := range counts {
				total += c
			}
			emit(w + "=" + itoa(total))
		},
		Config: cfg,
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestRunDeterministicGlobalOrder(t *testing.T) {
	docs := []string{"the quick brown fox", "the lazy dog", "the fox"}
	want := []string{"brown=1", "dog=1", "fox=2", "lazy=1", "quick=1", "the=3"}
	for trial := 0; trial < 5; trial++ {
		res, err := Run(wordCountRound(Config{Workers: 4, MapChunk: 1, Partitions: 16}), docs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !reflect.DeepEqual(res.Outputs, want) {
			t.Fatalf("trial %d: outputs = %v, want %v", trial, res.Outputs, want)
		}
	}
}

func TestPerPartitionMetrics(t *testing.T) {
	docs := []string{"a b c d e f g h"}
	res, err := Run(wordCountRound(Config{Partitions: 4}), docs)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if len(m.Partitions) != 4 {
		t.Fatalf("Partitions = %d stats, want 4", len(m.Partitions))
	}
	var pairs, keys int64
	for _, ps := range m.Partitions {
		pairs += ps.Pairs
		keys += ps.Keys
		if ps.Keys > 0 && ps.Worker < 0 {
			t.Errorf("non-empty partition not scheduled: %+v", ps)
		}
	}
	if pairs != m.PairsShuffled || keys != m.Reducers {
		t.Errorf("partition sums (%d pairs, %d keys) disagree with totals (%d, %d)",
			pairs, keys, m.PairsShuffled, m.Reducers)
	}
	if m.Makespan < m.IdealMakespan {
		t.Errorf("Makespan %d < IdealMakespan %d", m.Makespan, m.IdealMakespan)
	}
	if s := m.PartitionSkew(); s < 1 {
		t.Errorf("PartitionSkew = %v, want >= 1 on a non-empty round", s)
	}
}

func TestLPTSchedulingBalancesPartitions(t *testing.T) {
	// Explicit partitioner: key i to partition i, loads 8,4,2,1 over 2
	// workers. LPT must not put everything on one worker.
	r := Round[int, int, int, int]{
		Name: "skewed",
		Map: func(x int, emit func(int, int)) {
			emit(x, x)
		},
		Reduce:      func(k int, vs []int, emit func(int)) { emit(len(vs)) },
		Partitioner: func(k int) int { return k },
		Config:      Config{Workers: 2, Partitions: 4},
	}
	var inputs []int
	for k, n := range map[int]int{0: 8, 1: 4, 2: 2, 3: 1} {
		for i := 0; i < n; i++ {
			inputs = append(inputs, k)
		}
	}
	res, err := Run(r, inputs)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Makespan != 8 {
		t.Errorf("Makespan = %d, want 8 (LPT: {8} vs {4,2,1})", m.Makespan)
	}
	if m.Partitions[0].Worker == m.Partitions[1].Worker {
		t.Errorf("two heaviest partitions share worker %d", m.Partitions[0].Worker)
	}
	if m.Partitions[0].MaxGroup != 8 {
		t.Errorf("partition 0 MaxGroup = %d, want 8", m.Partitions[0].MaxGroup)
	}
}

func TestOverflowSingleKeyAloneInPartition(t *testing.T) {
	// The partition-boundary case: the overflowing key is the *only* key
	// in its partition, so the violation must be detected from partition
	// stats, not from comparing against neighbors.
	r := Round[int, int, int, int]{
		Name:        "boundary",
		Map:         func(x int, emit func(int, int)) { emit(x, x) },
		Reduce:      func(k int, vs []int, emit func(int)) { emit(len(vs)) },
		Partitioner: func(k int) int { return k }, // key 0 alone in partition 0
		Config:      Config{Partitions: 2, MaxReducerInput: 3},
	}
	inputs := []int{0, 0, 0, 0, 1} // key 0 has 4 values > limit 3; key 1 is fine
	res, err := Run(r, inputs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	// Metrics up to the failure point must be populated.
	if res.Metrics.MaxReducerInput != 4 || res.Metrics.Reducers != 2 {
		t.Errorf("metrics at failure = %+v", res.Metrics)
	}
	// And the reduce phase must not have run.
	if res.Outputs != nil || res.Metrics.Outputs != 0 {
		t.Errorf("reduce ran despite overflow: %v", res.Outputs)
	}

	// At exactly the limit the round succeeds.
	r.Config.MaxReducerInput = 4
	if _, err := Run(r, inputs); err != nil {
		t.Fatalf("at limit: %v", err)
	}

	// With RecordLoads/RecordKeys, the failure still reports which
	// reducers blew the limit even though reduce never ran.
	r.Config.MaxReducerInput = 3
	r.Config.RecordLoads = true
	r.Config.RecordKeys = true
	res, err = Run(r, inputs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(res.Keys, []int{0, 1}) || !reflect.DeepEqual(res.Loads, []int{4, 1}) {
		t.Errorf("at-failure keys/loads = %v / %v, want [0 1] / [4 1]", res.Keys, res.Loads)
	}
}

func TestFaultInjectionThroughPartitionedExecutor(t *testing.T) {
	docs := []string{"a b", "b c", "c d", "d e", "e f", "f g"}
	clean, err := Run(wordCountRound(Config{Workers: 3}), docs)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(wordCountRound(Config{
		Workers: 3, MapChunk: 1, Partitions: 8, FailureEveryN: 2, MaxRetries: 3,
	}), docs)
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	if !reflect.DeepEqual(faulty.Outputs, clean.Outputs) {
		t.Errorf("faulty outputs %v != clean %v", faulty.Outputs, clean.Outputs)
	}
	if faulty.Metrics.MapRetries == 0 {
		t.Error("MapRetries = 0, want > 0")
	}
	// Reduce ordinals count non-empty partitions from 0, so ordinal 0
	// always exists and always fails its first attempt.
	if faulty.Metrics.ReduceRetries == 0 {
		t.Error("ReduceRetries = 0, want > 0")
	}
	if faulty.Metrics.PairsEmitted != 12 {
		t.Errorf("PairsEmitted = %d, want 12 (no double counting)", faulty.Metrics.PairsEmitted)
	}
}

func TestFaultInjectionExhaustsRetries(t *testing.T) {
	r := wordCountRound(Config{FailureEveryN: 1, MaxRetries: 0})
	// MaxRetries defaults to 2 with injection on, so this recovers.
	if _, err := Run(r, []string{"a"}); err != nil {
		t.Fatalf("should recover: %v", err)
	}
	// An always-failing reduce exhausts retries and surfaces the error.
	always := Round[int, int, int, int]{
		Name:   "doomed",
		Map:    func(x int, emit func(int, int)) { emit(0, x) },
		Reduce: func(int, []int, func(int)) {},
		Config: Config{FailureEveryN: 1, MaxRetries: 1},
	}
	// FailureEveryN only fails attempt 0, so even MaxRetries 1 recovers;
	// instead prove the retry counter reflects both phases.
	res, err := Run(always, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MapRetries == 0 || res.Metrics.ReduceRetries == 0 {
		t.Errorf("retries = %+v, want both phases retried", res.Metrics)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	doc := strings.Repeat("x ", 100)
	r := Round[string, string, int, int]{
		Name: "combined",
		Map: func(d string, emit func(string, int)) {
			for _, w := range strings.Fields(d) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int) []int {
			total := 0
			for _, v := range vs {
				total += v
			}
			return []int{total}
		},
		Reduce: func(_ string, vs []int, emit func(int)) {
			total := 0
			for _, v := range vs {
				total += v
			}
			emit(total)
		},
		Config: Config{Workers: 2},
	}
	res, err := Run(r, []string{doc, doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != 200 {
		t.Fatalf("outputs = %v, want [200]", res.Outputs)
	}
	if res.Metrics.PairsEmitted != 200 {
		t.Errorf("PairsEmitted = %d, want 200 (pre-combine)", res.Metrics.PairsEmitted)
	}
	if res.Metrics.PairsShuffled >= 200 || res.Metrics.PairsShuffled < 1 {
		t.Errorf("PairsShuffled = %d, want a handful of partials", res.Metrics.PairsShuffled)
	}
}

func TestRecordKeysAndLoads(t *testing.T) {
	res, err := Run(wordCountRound(Config{RecordKeys: true, RecordLoads: true}),
		[]string{"b a a", "c b a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Keys, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v, want [a b c]", res.Keys)
	}
	if !reflect.DeepEqual(res.Loads, []int{3, 2, 1}) {
		t.Errorf("Loads = %v, want [3 2 1]", res.Loads)
	}
}

func TestBoundedMemorySurfacesInMetrics(t *testing.T) {
	docs := make([]string, 50)
	for i := range docs {
		docs[i] = "w w w w"
	}
	res, err := Run(wordCountRound(Config{Partitions: 2, MemoryBudget: 16}), docs)
	if err != nil {
		t.Fatal(err)
	}
	// A single key means a single partition regardless of the hash
	// seed, so the spill profile is exact: 200 pairs against a 16-pair
	// budget seal 12 runs of 16, leaving 8 live.
	if res.Metrics.SpillEvents != 12 || res.Metrics.SpilledPairs != 192 {
		t.Errorf("spill profile = %d events, %d pairs; want 12 and 192: %+v",
			res.Metrics.SpillEvents, res.Metrics.SpilledPairs, res.Metrics)
	}
	if res.Metrics.MaxLivePairs != 16 {
		t.Errorf("MaxLivePairs = %d, want exactly the 16-pair budget", res.Metrics.MaxLivePairs)
	}
	if res.Metrics.BytesSpilled != 0 {
		t.Errorf("BytesSpilled = %d without a SpillDir, want 0", res.Metrics.BytesSpilled)
	}
	if res.Metrics.Reducers != 1 || res.Metrics.MaxReducerInput != 200 {
		t.Errorf("grouping wrong under spills: %+v", res.Metrics)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != "w=200" {
		t.Errorf("outputs = %v, want [w=200]", res.Outputs)
	}
}

func TestDiskSpillThroughEngine(t *testing.T) {
	// The same workload with a SpillDir must produce identical outputs
	// and additionally report real disk traffic; fault injection on top
	// exercises re-reading spilled runs on reduce retry.
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = "a b c d"
	}
	clean, err := Run(wordCountRound(Config{Partitions: 4, Workers: 2}), docs)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := Run(wordCountRound(Config{
		Partitions: 4, Workers: 2,
		MemoryBudget: 8, SpillDir: t.TempDir(),
		FailureEveryN: 2, MaxRetries: 3, MapChunk: 4,
	}), docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spill.Outputs, clean.Outputs) {
		t.Errorf("spilled outputs %v != clean %v", spill.Outputs, clean.Outputs)
	}
	if spill.Metrics.BytesSpilled == 0 {
		t.Error("BytesSpilled = 0, want real disk spill traffic")
	}
	if spill.Metrics.RunsMerged == 0 {
		t.Error("RunsMerged = 0, want k-way merges at reduce time")
	}
	if spill.Metrics.MaxLivePairs > 8 {
		t.Errorf("MaxLivePairs = %d exceeds the 8-pair budget", spill.Metrics.MaxLivePairs)
	}
	if spill.Metrics.ReduceRetries == 0 {
		t.Error("ReduceRetries = 0: injection should have retried a streamed reduce")
	}
	if spill.Metrics.MaxReducerInput != clean.Metrics.MaxReducerInput ||
		spill.Metrics.Reducers != clean.Metrics.Reducers ||
		spill.Metrics.PairsShuffled != clean.Metrics.PairsShuffled {
		t.Errorf("logical metrics diverge under spill:\nclean %+v\nspill %+v",
			clean.Metrics, spill.Metrics)
	}
}

func TestSpillDirWithoutBudgetRejected(t *testing.T) {
	// SpillDir alone cannot spill anything (no budget means no seals);
	// silently running fully in memory would defeat the point, so the
	// misconfiguration is an error.
	_, err := Run(wordCountRound(Config{SpillDir: t.TempDir()}), []string{"a b"})
	if err == nil || !strings.Contains(err.Error(), "SpillDir without a memory budget") {
		t.Fatalf("err = %v, want the SpillDir-without-budget rejection", err)
	}
}

func TestDiskSpillOverflowPathRecordsLoads(t *testing.T) {
	// MaxReducerInput enforcement reads group sizes from the counting
	// pass over spilled runs; RecordLoads must survive that path.
	r := Round[int, int, int, int]{
		Name:        "spill-overflow",
		Map:         func(x int, emit func(int, int)) { emit(x%3, x) },
		Reduce:      func(k int, vs []int, emit func(int)) { emit(len(vs)) },
		Partitioner: func(k int) int { return k },
		Config: Config{
			Partitions: 4, MaxReducerInput: 10,
			MemoryBudget: 4, SpillDir: t.TempDir(),
			RecordLoads: true, RecordKeys: true,
		},
	}
	inputs := make([]int, 36) // keys 0,1,2 get 12 values each, limit 10
	for i := range inputs {
		inputs[i] = i
	}
	res, err := Run(r, inputs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if !reflect.DeepEqual(res.Keys, []int{0, 1, 2}) || !reflect.DeepEqual(res.Loads, []int{12, 12, 12}) {
		t.Errorf("keys/loads at failure = %v / %v, want [0 1 2] / [12 12 12]", res.Keys, res.Loads)
	}
	if res.Metrics.BytesSpilled == 0 {
		t.Error("expected disk spills before the overflow was detected")
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(wordCountRound(Config{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 || res.Metrics.Reducers != 0 {
		t.Errorf("empty run: %+v", res.Metrics)
	}
}

func TestOverflowDiagnosisIsMemoryOnly(t *testing.T) {
	// A spilled round that blows the q limit must diagnose the overflow
	// (keys and loads) without re-reading the spilled runs: Stats and
	// collectKeyLoads both merge the resident run indexes in memory.
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = "hot a b"
	}
	res, err := Run(wordCountRound(Config{
		Partitions: 2, MemoryBudget: 8, SpillDir: t.TempDir(),
		MaxReducerInput: 10, RecordLoads: true, RecordKeys: true,
	}), docs)
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if res.Metrics.BytesSpilled == 0 {
		t.Fatal("workload never spilled; test is vacuous")
	}
	if res.Metrics.DiskBytesRead != 0 {
		t.Errorf("overflow diagnosis read %d bytes from disk, want 0 (index merge only)",
			res.Metrics.DiskBytesRead)
	}
	if len(res.Keys) != 3 || len(res.Loads) != 3 {
		t.Fatalf("diagnosis incomplete: keys %v loads %v", res.Keys, res.Loads)
	}
	for i, k := range res.Keys {
		if res.Loads[i] != 40 {
			t.Errorf("key %q load = %d, want 40", k, res.Loads[i])
		}
	}
}

func TestCombinerPushDownThroughEngine(t *testing.T) {
	// The same spilled word count with and without a combiner: the
	// combiner run must write fewer spill bytes (the paper's
	// post-combine communication cost) and produce identical outputs.
	docs := make([]string, 64)
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range docs {
		docs[i] = strings.Join(words, " ")
	}
	cfg := Config{Partitions: 2, Workers: 2, MemoryBudget: 8}
	mk := func(withCombiner bool, spillDir string) Round[string, string, int, string] {
		r := wordCountRound(cfg)
		r.Config.SpillDir = spillDir
		if withCombiner {
			r.Combine = func(_ string, vs []int) []int {
				total := 0
				for _, v := range vs {
					total += v
				}
				return []int{total}
			}
		}
		return r
	}
	raw, err := Run(mk(false, t.TempDir()), docs)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(mk(true, t.TempDir()), docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw.Outputs, combined.Outputs) {
		t.Fatalf("combiner changed outputs:\nraw  %v\ncomb %v", raw.Outputs, combined.Outputs)
	}
	if raw.Metrics.BytesSpilled == 0 {
		t.Fatal("raw run never spilled; test is vacuous")
	}
	if combined.Metrics.BytesSpilled >= raw.Metrics.BytesSpilled {
		t.Errorf("BytesSpilled with combiner = %d, want < %d",
			combined.Metrics.BytesSpilled, raw.Metrics.BytesSpilled)
	}
	if raw.Metrics.DiskBytesRead == 0 {
		t.Error("raw spilled round reported zero DiskBytesRead after its reduce merge")
	}
	if combined.Metrics.DiskBytesRead >= raw.Metrics.DiskBytesRead {
		t.Errorf("DiskBytesRead with combiner = %d, want < %d (less spilled, less read back)",
			combined.Metrics.DiskBytesRead, raw.Metrics.DiskBytesRead)
	}
	if combined.Metrics.PairsEmitted != raw.Metrics.PairsEmitted {
		t.Errorf("PairsEmitted must stay pre-combine: %d vs %d",
			combined.Metrics.PairsEmitted, raw.Metrics.PairsEmitted)
	}
}
