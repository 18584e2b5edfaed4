package mr

import (
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// Pair is the tests' key-value record for multi-round jobs.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// wordCountJob is the canonical word-count example used throughout the
// tests; the paper uses it in Example 2.5 to illustrate replication rate 1.
func wordCountJob(cfg Config) *Job[string, string, int, string] {
	return &Job[string, string, int, string]{
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

func TestWordCount(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"the lazy dog",
		"the fox jumps over the lazy dog",
	}
	out, met, err := wordCountJob(Config{Workers: 4}).Run(docs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"brown=1", "dog=2", "fox=2", "jumps=1", "lazy=2", "over=1", "quick=1", "the=4",
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v", out, want)
	}
	if met.MapInputs != 3 {
		t.Errorf("MapInputs = %d, want 3", met.MapInputs)
	}
	if met.PairsEmitted != 14 {
		t.Errorf("PairsEmitted = %d, want 14", met.PairsEmitted)
	}
	if met.Reducers != 8 {
		t.Errorf("Reducers = %d, want 8", met.Reducers)
	}
	if met.MaxReducerInput != 4 { // "the" appears 4 times
		t.Errorf("MaxReducerInput = %d, want 4", met.MaxReducerInput)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	docs := []string{"b a c", "c b a", "a a b"}
	var first []string
	for trial := 0; trial < 10; trial++ {
		out, _, err := wordCountJob(Config{Workers: 8, MapChunk: 1}).Run(docs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trial == 0 {
			first = out
			continue
		}
		if !reflect.DeepEqual(out, first) {
			t.Fatalf("trial %d: outputs %v differ from first run %v", trial, out, first)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	out, met, err := wordCountJob(Config{}).Run(nil)
	if err != nil {
		t.Fatalf("Run on empty input: %v", err)
	}
	if len(out) != 0 {
		t.Errorf("outputs = %v, want empty", out)
	}
	if met.ReplicationRate() != 0 {
		t.Errorf("ReplicationRate = %v, want 0 on empty input", met.ReplicationRate())
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	// 100 copies of the same word in one document: the combiner should
	// collapse each map task's values for a key to a single partial count.
	doc := strings.Repeat("x ", 100)
	job := &Job[string, string, int, int]{
		Name: "combined-count",
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
	out, met, err := job.Run([]string{doc, doc})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 1 || out[0] != 200 {
		t.Fatalf("outputs = %v, want [200]", out)
	}
	if met.PairsEmitted != 200 {
		t.Errorf("PairsEmitted = %d, want 200", met.PairsEmitted)
	}
	if met.PairsShuffled >= met.PairsEmitted {
		t.Errorf("PairsShuffled = %d, want < PairsEmitted = %d", met.PairsShuffled, met.PairsEmitted)
	}
	if met.PairsShuffled < 1 || met.PairsShuffled > 8 {
		t.Errorf("PairsShuffled = %d, want one partial per map task (small)", met.PairsShuffled)
	}
}

func TestMaxReducerInputEnforced(t *testing.T) {
	job := wordCountJob(Config{MaxReducerInput: 3})
	_, _, err := job.Run([]string{"a a a a"})
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	// At the limit exactly, the job must succeed.
	if _, _, err := wordCountJob(Config{MaxReducerInput: 4}).Run([]string{"a a a a"}); err != nil {
		t.Fatalf("at limit: %v", err)
	}
}

func TestFaultInjectionRecovers(t *testing.T) {
	docs := []string{"a b", "b c", "c d", "d e", "e f", "f g"}
	clean, _, err := wordCountJob(Config{Workers: 3}).Run(docs)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	faulty := wordCountJob(Config{Workers: 3, MapChunk: 1, FailureEveryN: 2, MaxRetries: 3})
	out, met, err := faulty.Run(docs)
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	if !reflect.DeepEqual(out, clean) {
		t.Errorf("faulty run output %v differs from clean %v", out, clean)
	}
	if met.MapRetries == 0 {
		t.Errorf("MapRetries = 0, want > 0 with FailureEveryN=2")
	}
	if met.ReduceRetries == 0 {
		t.Errorf("ReduceRetries = 0, want > 0 with FailureEveryN=2")
	}
	// Metrics must not double-count retried work.
	if met.PairsEmitted != 12 {
		t.Errorf("PairsEmitted = %d, want 12 (no double counting on retry)", met.PairsEmitted)
	}
}

func TestFaultInjectionExhaustsRetries(t *testing.T) {
	// FailureEveryN=1 fails every first attempt; MaxRetries=0 would default,
	// so use a job where every attempt of task 0 fails by failing attempts
	// 0.. up to the retry limit. With FailureEveryN=1 only attempt 0 fails,
	// so to force exhaustion we use MaxRetries < 1 via a direct check:
	// attempt 0 fails, and MaxRetries defaults to 2, so the job succeeds.
	job := wordCountJob(Config{FailureEveryN: 1})
	if _, _, err := job.Run([]string{"a"}); err != nil {
		t.Fatalf("retry should recover: %v", err)
	}
}

func TestReplicationRateWordCountIsOne(t *testing.T) {
	// Example 2.5: viewing word occurrences as the inputs, word count has
	// replication rate exactly 1.
	occurrences := []string{"the", "quick", "the", "fox", "fox", "fox"}
	job := &Job[string, string, int, string]{
		Name:   "occurrence-count",
		Map:    func(w string, emit func(string, int)) { emit(w, 1) },
		Reduce: func(w string, vs []int, emit func(string)) { emit(w) },
	}
	_, met, err := job.Run(occurrences)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r := met.ReplicationRate(); r != 1.0 {
		t.Errorf("ReplicationRate = %v, want exactly 1 (embarrassingly parallel)", r)
	}
}

func TestIntKeysSortedNumerically(t *testing.T) {
	job := &Job[int, int, int, int]{
		Name:   "identity",
		Map:    func(x int, emit func(int, int)) { emit(x, x) },
		Reduce: func(k int, _ []int, emit func(int)) { emit(k) },
	}
	out, _, err := job.Run([]int{10, 2, 33, 4, 100, 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{2, 4, 5, 10, 33, 100}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want numerically sorted %v", out, want)
	}
}

func TestChainTwoRounds(t *testing.T) {
	// Round 1: per-document word counts; round 2: global sum per word.
	round1 := &Job[string, string, int, Pair[string, int]]{
		Name: "local-count",
		Map: func(doc string, emit func(string, int)) {
			for _, w := range strings.Fields(doc) {
				emit(w, 1)
			}
		},
		Reduce: func(w string, vs []int, emit func(Pair[string, int])) {
			emit(Pair[string, int]{w, len(vs)})
		},
	}
	round2 := &Job[Pair[string, int], string, int, string]{
		Name: "global-sum",
		Map: func(p Pair[string, int], emit func(string, int)) {
			emit(p.Key, p.Value)
		},
		Reduce: func(w string, vs []int, emit func(string)) {
			total := 0
			for _, v := range vs {
				total += v
			}
			emit(w + ":" + itoa(total))
		},
	}
	out, pipe, err := RunPipeline([]string{"a b a", "b b c"}, RoundOf(round1), RoundOf(round2))
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	want := []string{"a:2", "b:3", "c:1"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v", out, want)
	}
	if len(pipe.Rounds) != 2 {
		t.Fatalf("Rounds = %d, want 2", len(pipe.Rounds))
	}
	if pipe.TotalPairsEmitted() != pipe.Rounds[0].Metrics.PairsEmitted+pipe.Rounds[1].Metrics.PairsEmitted {
		t.Errorf("TotalPairsEmitted mismatch")
	}
}

// TestPropertyWorkersInvariant: results must be identical regardless of
// worker count and chunk size.
func TestPropertyWorkersInvariant(t *testing.T) {
	f := func(words []uint8, workers uint8, chunk uint8) bool {
		docs := make([]string, 0, len(words))
		for _, w := range words {
			docs = append(docs, string(rune('a'+w%16)))
		}
		base, _, err := wordCountJob(Config{Workers: 1, MapChunk: 1}).Run(docs)
		if err != nil {
			return false
		}
		cfg := Config{Workers: int(workers%8) + 1, MapChunk: int(chunk%5) + 1}
		got, _, err := wordCountJob(cfg).Run(docs)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(base, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPairsEmittedEqualsSumOfMapEmissions: the replication-rate
// denominator and numerator must agree with a direct recount.
func TestPropertyPairsEmittedEqualsSumOfMapEmissions(t *testing.T) {
	f := func(seed []uint8) bool {
		docs := make([]string, 0, len(seed))
		total := 0
		for _, s := range seed {
			n := int(s % 7)
			docs = append(docs, strings.TrimSpace(strings.Repeat("w ", n)))
			total += n
		}
		_, met, err := wordCountJob(Config{}).Run(docs)
		if err != nil {
			return false
		}
		return met.PairsEmitted == int64(total) && met.MapInputs == int64(len(docs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMetricsMeanAndString(t *testing.T) {
	_, met, err := wordCountJob(Config{}).Run([]string{"a a b"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := met.String(); !strings.Contains(s, "reducers=2") {
		t.Errorf("String() = %q, want it to mention reducers=2", s)
	}
}

func TestMetricsStringGolden(t *testing.T) {
	// The one-line summary is what operators grep out of logs; pin the
	// exact format so fields cannot silently drop out of it again.
	m := Metrics{
		MapInputs:    100,
		PairsEmitted: 400,
		Stats: shuffle.Stats{
			PairsShuffled:     400,
			Reducers:          7,
			MaxReducerInput:   9,
			Partitions:        []shuffle.PartitionStat{{Pairs: 300}, {Pairs: 100}},
			BytesSpilled:      2048,
			DiskBytesRead:     1024,
			PeakResidentPairs: 256,
		},
		SpillOverlapNs:   7_500_000,
		TaskRetries:      3,
		WorkerDeaths:     1,
		LeaseExpirations: 2,
	}
	want := "inputs=100 pairs=400 reducers=7 maxq=9 r=4.0000 skew=1.50 " +
		"spilled=2048B read=1024B peakResident=256 overlap=7ms " +
		"retries=3 deaths=1 leasesExpired=2"
	if got := m.String(); got != want {
		t.Errorf("String() =\n  %q\nwant\n  %q", got, want)
	}
}

// ErrReducerOverflow is the sentinel a round over its reducer limit
// wraps, in process and in ProcMode alike.
var ErrReducerOverflow = engine.ErrReducerOverflow

func TestMetricsPublishTo(t *testing.T) {
	m := Metrics{
		MapInputs:    10,
		PairsEmitted: 40,
		Stats: shuffle.Stats{
			PairsShuffled:    30,
			Reducers:         4,
			MaxReducerInput:  16,
			BytesSpilled:     512,
			ReducerInputLog2: []int64{1, 2, 0, 0, 1}, // 1×[1,2), 2×[2,4), 1×[16,32)
		},
		TaskRetries:      5,
		WorkerDeaths:     2,
		LeaseExpirations: 3,
		SalvagedTasks:    1,
	}
	reg := obs.NewRegistry()
	m.PublishTo(reg)
	m.PublishTo(reg) // counters accumulate, gauges overwrite

	if got := reg.Counter("mr_pairs_emitted_total", "").Value(); got != 80 {
		t.Errorf("mr_pairs_emitted_total = %d, want 80", got)
	}
	if got := reg.Counter("mr_rounds_total", "").Value(); got != 2 {
		t.Errorf("mr_rounds_total = %d, want 2", got)
	}
	if got := reg.Gauge("mr_round_replication_rate", "").Value(); got != 4 {
		t.Errorf("mr_round_replication_rate = %v, want 4", got)
	}
	// Histogram: 4 groups per round, 8 after two publishes; values 1, 2,
	// 2, 16 land at le="1"→1, le="2"→3, le="16"→4 cumulatively per round.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		"mr_pairs_emitted_total 80",
		"mr_round_max_reducer_input 16",
		`mr_reducer_input_size_bucket{le="2"} 6`,
		"mr_reducer_input_size_count 8",
		"mr_task_retries_total 10",
		"mr_worker_deaths_total 4",
		"mr_lease_expired_total 6",
		"mr_tasks_salvaged_total 2",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, sb.String())
		}
	}
}

// TestREADMEMetricReference: every metric PublishTo registers is named
// in the README's metric name reference, so the reference cannot fall
// behind the registry.
func TestREADMEMetricReference(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metric name reference")
	if !ok {
		t.Fatal("README has no metric name reference section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	reg := obs.NewRegistry()
	Metrics{}.PublishTo(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	names := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "# HELP ")
		if !ok {
			continue
		}
		names++
		name, _, _ := strings.Cut(rest, " ")
		if !strings.Contains(section, "`"+name+"`") {
			t.Errorf("README metric name reference does not list %s", name)
		}
	}
	if names == 0 {
		t.Fatal("PublishTo registered no metric")
	}
}

func TestRecorderRoundTraceIsValid(t *testing.T) {
	// A recorded round must export a well-formed trace: JSON that
	// parses, spans balanced per lane, timestamps monotone — and the
	// raw snapshot must balance too (every Begin has its End even
	// before export-time repair).
	rec := obs.NewRecorder(0)
	docs := []string{"a b c d", "b c d e", "c d e f", "d e f g"}
	out, met, err := wordCountJob(Config{Workers: 2, MemoryBudget: 2, Recorder: rec}).Run(docs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("no outputs")
	}
	if err := obs.CheckBalanced(rec.Snapshot()); err != nil {
		t.Errorf("snapshot unbalanced: %v", err)
	}
	var buf strings.Builder
	if err := obs.WriteTrace(&buf, rec); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := obs.ValidateTrace([]byte(buf.String())); err != nil {
		t.Errorf("invalid trace: %v", err)
	}
	for _, want := range []string{"phase:map", "phase:reduce", "map-task", "reduce-task", "seal"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %q spans", want)
		}
	}
	// The q distribution must cover all reducers: 7 distinct words.
	var groups int64
	for _, n := range met.ReducerInputLog2 {
		groups += n
	}
	if groups != met.Reducers {
		t.Errorf("ReducerInputLog2 sums to %d groups, want Reducers = %d", groups, met.Reducers)
	}
}

// sortedKeys returns the map's keys in the runtime's canonical
// deterministic order (see shuffle.SortKeys).
func sortedKeys[K comparable, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	shuffle.SortKeys(keys)
	return keys
}

func TestSortedKeysStability(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := sortedKeys(m)
	if !sort.StringsAreSorted(got) {
		t.Errorf("sortedKeys = %v, want sorted", got)
	}
	mi := map[uint64]int{5: 1, 2: 2, 9: 3}
	gi := sortedKeys(mi)
	if !(gi[0] == 2 && gi[1] == 5 && gi[2] == 9) {
		t.Errorf("sortedKeys(uint64) = %v, want [2 5 9]", gi)
	}
}

func TestMapChunkLargerThanInput(t *testing.T) {
	out, met, err := wordCountJob(Config{MapChunk: 1000}).Run([]string{"a b", "b c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("outputs = %v, want 3 words", out)
	}
	if met.PairsEmitted != 4 {
		t.Errorf("PairsEmitted = %d, want 4", met.PairsEmitted)
	}
}

func TestMoreWorkersThanTasks(t *testing.T) {
	out, _, err := wordCountJob(Config{Workers: 64, MapChunk: 1}).Run([]string{"x y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("outputs = %v, want 2", out)
	}
}

func TestCombinerWithFaultInjection(t *testing.T) {
	// A retried map task must re-run its combiner without double counting.
	doc := strings.Repeat("w ", 40)
	job := &Job[string, string, int, int]{
		Name: "combined-faulty",
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
		Config: Config{FailureEveryN: 1, MaxRetries: 2, MapChunk: 10},
	}
	out, met, err := job.Run([]string{doc, doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 80 {
		t.Fatalf("out = %v, want [80]", out)
	}
	if met.MapRetries == 0 {
		t.Error("expected retries")
	}
	if met.PairsEmitted != 80 {
		t.Errorf("PairsEmitted = %d, want 80 (no double count across retries)", met.PairsEmitted)
	}
}

func TestReducerOverflowWithCombiner(t *testing.T) {
	// The limit applies to post-combine reducer input: combining 100
	// occurrences into a handful of partials must pass a small q.
	doc := strings.Repeat("z ", 100)
	job := &Job[string, string, int, int]{
		Name: "combined-limited",
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
		Config: Config{MaxReducerInput: 16, MapChunk: 10},
	}
	out, _, err := job.Run([]string{doc})
	if err != nil {
		t.Fatalf("combined values should fit q=16: %v", err)
	}
	if out[0] != 100 {
		t.Errorf("out = %v, want 100", out)
	}
}

func TestPipelineEmptyTotal(t *testing.T) {
	p := &Pipeline{}
	if p.TotalPairsEmitted() != 0 {
		t.Error("empty pipeline should report zeros")
	}
}

func TestChainPropagatesFirstRoundError(t *testing.T) {
	bad := &Job[int, int, int, int]{
		Name:   "overflowing",
		Map:    func(x int, emit func(int, int)) { emit(0, x) },
		Reduce: func(_ int, vs []int, emit func(int)) { emit(len(vs)) },
		Config: Config{MaxReducerInput: 1},
	}
	second := &Job[int, int, int, int]{
		Name:   "never-runs",
		Map:    func(x int, emit func(int, int)) { emit(x, x) },
		Reduce: func(k int, _ []int, emit func(int)) { emit(k) },
	}
	_, pipe, err := RunPipeline([]int{1, 2, 3}, RoundOf(bad), RoundOf(second))
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if len(pipe.Rounds) != 0 {
		t.Errorf("failed first round must not be recorded, got %d rounds", len(pipe.Rounds))
	}
}
