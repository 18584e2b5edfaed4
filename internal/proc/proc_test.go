package proc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// TestMain doubles as the worker binary: the driver spawns the test
// executable itself, and MaybeWorker hijacks the process before any
// test runs when the worker environment is set.
func TestMain(m *testing.M) {
	registerTestJobs()
	MaybeWorker()
	os.Exit(m.Run())
}

// wcOut is one word's count — the wordcount job's output record.
type wcOut struct {
	Word  string
	Count int
}

func registerTestJobs() {
	Register(engine.Round[string, string, int, wcOut]{
		Name: "wordcount",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int) []int {
			s := 0
			for _, v := range vs {
				s += v
			}
			return []int{s}
		},
		Reduce: func(k string, vs []int, emit func(wcOut)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(wcOut{Word: k, Count: s})
		},
	})
	// Same job without a combiner: every emitted pair crosses the
	// process boundary, which the skew/limit tests rely on.
	Register(engine.Round[string, string, int, wcOut]{
		Name: "wordcount-nocombine",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Reduce: func(k string, vs []int, emit func(wcOut)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(wcOut{Word: k, Count: s})
		},
	})
	registerOrderJob()
	// Jobs whose input or output type has an unexported field: it must
	// cross the process boundary intact.
	Register(engine.Round[lossyLine, string, int, wcOut]{
		Name: "lossy-input",
		Map: func(l lossyLine, emit func(string, int)) {
			for _, w := range strings.Fields(l.Text) {
				emit(w, l.weight)
			}
		},
		Reduce: sumCounts,
	})
	Register(engine.Round[string, string, int, lossyOut]{
		Name: "lossy-output",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Reduce: func(k string, vs []int, emit func(lossyOut)) { emit(lossyOut{Word: k, count: len(vs)}) },
	})
}

// lossyLine and lossyOut each carry an unexported field, which an older
// run-file codec silently dropped.
type lossyLine struct {
	Text   string
	weight int
}

type lossyOut struct {
	Word  string
	count int
}

func sumCounts(k string, vs []int, emit func(wcOut)) {
	s := 0
	for _, v := range vs {
		s += v
	}
	emit(wcOut{Word: k, Count: s})
}

// genLines builds a deterministic corpus with repeated words and skew.
func genLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		a := fmt.Sprintf("w%02d", i%23)
		b := fmt.Sprintf("w%02d", (i*7)%31)
		c := fmt.Sprintf("rare%03d", i%97)
		lines[i] = strings.Join([]string{a, b, c, "common"}, " ")
	}
	return lines
}

// refWordCount is the single-process reference: the same grouping and
// global canonical key order computed directly in this process, with no
// partitioning at all — partition placement must not leak into the
// output. Crash-tolerant runs must match it exactly.
func refWordCount(lines []string, parts int) []wcOut {
	_ = parts // placement-invariant by contract
	counts := make(map[string]int)
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			counts[w]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	shuffle.SortKeys(keys)
	outs := make([]wcOut, 0, len(keys))
	for _, k := range keys {
		outs = append(outs, wcOut{Word: k, Count: counts[k]})
	}
	return outs
}

// testWorkers reads the CI matrix knob (crashtest job) so the same
// tests cover several fleet sizes; default 3.
func testWorkers(t *testing.T) int {
	if s := os.Getenv("MRPROC_WORKERS"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && n > 0 {
			return n
		}
		t.Fatalf("bad MRPROC_WORKERS=%q", s)
	}
	return 3
}

// testMemBudget reads the CI matrix's MemoryBudget column so the whole
// crash suite also runs with tiny worker budgets (mid-task spills
// everywhere); default 0 = unbounded, one section per partition.
func testMemBudget(t *testing.T) int {
	if s := os.Getenv("MRPROC_MEMBUDGET"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && n >= 0 {
			return n
		}
		t.Fatalf("bad MRPROC_MEMBUDGET=%q", s)
	}
	return 0
}

// testSplitPairs reads the CI matrix's range-split column so the crash
// suite also runs with reduce workers cutting their merges into
// concurrent key ranges; default 0 = whole-partition merges.
func testSplitPairs(t *testing.T) int {
	if s := os.Getenv("MRPROC_SPLITPAIRS"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && n >= 0 {
			return n
		}
		t.Fatalf("bad MRPROC_SPLITPAIRS=%q", s)
	}
	return 0
}

// TestProcRangeSplit: reduce workers told to split their merges into
// key-range units must produce output files byte-identical to the
// whole-partition merge — same records, same order — and report the
// ranges they cut, whatever fan-out the plan's range rule derives from
// the fleet size (one worker still splits in two).
func TestProcRangeSplit(t *testing.T) {
	lines := genLines(150) // "common" dominates: a genuinely skewed hot key
	const parts = 3
	run := func(workers, splitPairs int) ([]wcOut, engine.Metrics) {
		outs, met, err := Run[string, string, int, wcOut]("wordcount-nocombine", lines, Options{
			// A pinned chunk keeps the map tasks, and so their resident
			// peaks, the same at every fleet size.
			Plan:    engine.Plan{Workers: workers, Partitions: parts, MapChunk: 40, ReduceSplitPairs: splitPairs},
			Dir:     t.TempDir(),
			Timeout: 90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs, met
	}
	want, wantMet := run(2, 0)
	if !reflect.DeepEqual(want, refWordCount(lines, parts)) {
		t.Fatal("unsplit run diverges from reference")
	}
	for _, workers := range []int{1, 3} {
		got, met := run(workers, 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("range-split outputs (workers=%d) diverge from whole-partition merge", workers)
		}
		if met.ReduceRanges == 0 {
			t.Fatalf("ReduceRanges = 0 with split target 8 over %d shuffled pairs", met.PairsShuffled)
		}
		if met.Reducers != wantMet.Reducers || met.MaxReducerInput != wantMet.MaxReducerInput ||
			met.PeakResidentPairs != wantMet.PeakResidentPairs {
			t.Fatalf("range-split metrics diverge:\nsplit %+v\nwhole %+v", met, wantMet)
		}
	}
}

func TestProcRunClean(t *testing.T) {
	t.Run("unbounded", func(t *testing.T) { testProcRunClean(t, 0) })
	// Inputs (480 pairs) far exceed the budget: map tasks must spill
	// mid-task, and the resident high-water mark stays bounded. A task
	// folds its combiner round's values and ships one pair per distinct
	// word, so tasks are 30 lines (~84 distinct words over 8 partitions)
	// at every fleet size, not the automatic ~4 per worker.
	t.Run("budget8", func(t *testing.T) { testProcRunClean(t, 8) })
}

func testProcRunClean(t *testing.T, budget int) {
	lines := genLines(120)
	const parts = 5
	dir := t.TempDir()
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, Options{
		Plan:    engine.Plan{Workers: testWorkers(t), Partitions: parts, MapChunk: 30, MemoryBudget: budget},
		Dir:     dir,
		Timeout: 90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := refWordCount(lines, parts)
	if !reflect.DeepEqual(outs, want) {
		t.Fatalf("multi-process output diverges from single-process reference:\n got %d records\nwant %d records", len(outs), len(want))
	}

	if met.MapInputs != 120 || met.Outputs != int64(len(want)) || met.Reducers != int64(len(want)) {
		t.Errorf("logical metrics off: %+v", met)
	}
	if met.WorkerDeaths != 0 || met.MapRetries != 0 || met.ReduceRetries != 0 || met.SalvagedTasks != 0 {
		t.Errorf("clean run recorded faults: %+v", met)
	}
	if met.PairsEmitted != 4*120 {
		t.Errorf("PairsEmitted = %d, want %d", met.PairsEmitted, 4*120)
	}
	if met.PairsShuffled <= 0 || met.PairsShuffled >= met.PairsEmitted {
		t.Errorf("combiner did not shrink the boundary crossing: shuffled %d of %d emitted", met.PairsShuffled, met.PairsEmitted)
	}

	// The acceptance criterion for BytesSpilled in proc mode: it must
	// equal the bytes actually written to the inter-process spool files.
	// In a fault-free run every written section is committed and
	// accepted, so the spool files on disk are exactly the accepted
	// sections.
	spools, err := filepath.Glob(filepath.Join(dir, "spool-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spools) == 0 {
		t.Fatal("no spool files written")
	}
	var onDisk int64
	for _, p := range spools {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	if got := met.BytesSpilled + met.IndexBytesSpilled; got != onDisk {
		t.Errorf("BytesSpilled+IndexBytesSpilled = %d, but spool files hold %d bytes", got, onDisk)
	}
	if met.BytesSpilled <= 0 || met.DiskBytesRead <= 0 {
		t.Errorf("boundary accounting empty: %+v", met)
	}

	if met.PeakResidentPairs <= 0 {
		t.Errorf("PeakResidentPairs = %d, want > 0", met.PeakResidentPairs)
	}
	if budget > 0 {
		// Map side: 8 internal partitions (5 rounded up) × budget, plus
		// one staging block (min 16 pairs). Reduce side: the largest
		// single group, which merge-read cannot shrink below.
		mapBound := int64(8*budget + 16)
		bound := mapBound
		if met.MaxReducerInput > bound {
			bound = met.MaxReducerInput
		}
		if bound >= met.PairsEmitted {
			t.Fatalf("bound %d is not smaller than the input (%d pairs); the test proves nothing", bound, met.PairsEmitted)
		}
		if met.PeakResidentPairs > bound {
			t.Errorf("PeakResidentPairs = %d exceeds the memory bound %d", met.PeakResidentPairs, bound)
		}
		// Mid-task spill evidence: some task committed more than one
		// section for a partition (Seq >= 1), i.e. pressure sealed part
		// of its output before the task finished.
		manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.log"))
		if err != nil || len(manifests) == 0 {
			t.Fatalf("no manifests found: %v", err)
		}
		spilled := false
		for _, mp := range manifests {
			entries, err := readManifest(runfile.OSFS, mp)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				for _, sec := range e.Sections {
					if sec.Seq >= 1 {
						spilled = true
					}
				}
			}
		}
		if !spilled {
			t.Error("no section with Seq >= 1: no map task spilled mid-task under the budget")
		}
	}
}

// TestProcRunMatchesAcrossWorkerCounts: the output contract is
// placement- and schedule-invariant — 1 worker and N workers produce
// identical bytes.
func TestProcRunMatchesAcrossWorkerCounts(t *testing.T) {
	lines := genLines(60)
	const parts = 4
	want := refWordCount(lines, parts)
	for _, workers := range []int{1, 4} {
		outs, _, err := Run[string, string, int, wcOut]("wordcount", lines, Options{
			Plan:    engine.Plan{Workers: workers, Partitions: parts},
			Timeout: 90 * time.Second,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(outs, want) {
			t.Fatalf("workers=%d output diverges from reference", workers)
		}
	}
}

// TestProcMaxReducerInput: the paper's q limit is enforced across the
// process boundary — a key group larger than the limit fails the job
// with the plan's sentinel, and the metrics carry the group's size.
func TestProcMaxReducerInput(t *testing.T) {
	lines := genLines(40) // "common" appears 40 times
	_, met, err := Run[string, string, int, wcOut]("wordcount-nocombine", lines, Options{
		Plan:    engine.Plan{Workers: 2, Partitions: 3, MaxReducerInput: 10},
		Timeout: 90 * time.Second,
	})
	if !errors.Is(err, engine.ErrReducerOverflow) {
		t.Fatalf("oversized reducer: err = %v, want engine.ErrReducerOverflow", err)
	}
	if met.MaxReducerInput != 40 {
		t.Errorf("MaxReducerInput = %d, want the offending group's 40", met.MaxReducerInput)
	}
}

func TestProcUnregisteredJob(t *testing.T) {
	_, _, err := Run[string, string, int, wcOut]("no-such-job", nil, Options{Timeout: 10 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered job = %v", err)
	}
}

// TestZeroTimeoutArmsNoDeadline: a zero Timeout arms no whole-run
// timer (mr.Config's ProcMode never sets one), a positive one does, and
// a run without a deadline completes.
func TestZeroTimeoutArmsNoDeadline(t *testing.T) {
	c, stop := Options{}.deadline()
	stop()
	if c != nil {
		t.Fatal("zero Timeout armed a deadline")
	}
	c, stop = Options{Timeout: time.Hour}.deadline()
	defer stop()
	if c == nil {
		t.Fatal("positive Timeout armed no deadline")
	}
	outs, _, err := Run[string, string, int, wcOut]("wordcount", []string{"a b", "b"}, Options{
		Plan: engine.Plan{Workers: 1, Partitions: 2},
	})
	if err != nil || len(outs) != 2 {
		t.Fatalf("run without a deadline: %d outputs, err %v", len(outs), err)
	}
}

func TestProcEmptyInputs(t *testing.T) {
	outs, met, err := Run[string, string, int, wcOut]("wordcount", nil, Options{
		Plan:    engine.Plan{Workers: 2, Partitions: 3},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 || met.MapInputs != 0 || met.Outputs != 0 {
		t.Fatalf("empty job produced %d outputs, %+v", len(outs), met)
	}
}

// TestProcRoundTripsUnexportedFields: every typed value crosses the
// process boundary through the run-file codec, whose compiled plans
// carry unexported fields. An input or output type with one must come
// back intact (an older codec dropped them, and returned weight-0 counts
// for lossy-input), equal to the in-process reference.
func TestProcRoundTripsUnexportedFields(t *testing.T) {
	opts := Options{
		Plan:    engine.Plan{Workers: 2, Partitions: 3},
		Timeout: 30 * time.Second,
	}
	lines := []lossyLine{{"a b", 2}, {"b", 3}, {"c a", 4}}
	outs, _, err := Run[lossyLine, string, int, wcOut]("lossy-input", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := []wcOut{{"a", 6}, {"b", 5}, {"c", 4}}; !reflect.DeepEqual(outs, want) {
		t.Errorf("lossy-input: outputs %v, want %v", outs, want)
	}

	words := genLines(5)
	louts, _, err := Run[string, string, int, lossyOut]("lossy-output", words, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []lossyOut
	for _, o := range refWordCount(words, 3) {
		want = append(want, lossyOut{Word: o.Word, count: o.Count})
	}
	if !reflect.DeepEqual(louts, want) {
		t.Errorf("lossy-output: outputs %v, want %v", louts, want)
	}
}

// TestProcDriverSpans: a traced Run records the driver's two serial
// tails — writing the input image and merging the reduce outputs — as
// balanced spans on the round lane, and the whole trace exports valid.
func TestProcDriverSpans(t *testing.T) {
	rec := obs.NewRecorder(0)
	outs, _, err := Run[string, string, int, wcOut]("wordcount", genLines(40), Options{
		Plan:    engine.Plan{Workers: 2, Partitions: 3, Recorder: rec},
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if err := obs.CheckBalanced(snap); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ends := map[obs.Op][]obs.Event{}
	for _, ls := range snap {
		for _, ev := range ls.Events {
			if ls.Kind == obs.LaneRound && ev.Kind == obs.KindEnd {
				ends[ev.Op] = append(ends[ev.Op], ev)
			}
		}
	}
	in, merge := ends[obs.OpProcInputs], ends[obs.OpProcOutputMerge]
	if len(in) != 1 || in[0].A <= 0 || in[0].B != 0 {
		t.Errorf("input-image spans %+v, want one clean span over a non-empty image", in)
	}
	if len(merge) != 1 || merge[0].A != int64(len(outs)) || merge[0].B != 0 {
		t.Errorf("output-merge spans %+v, want one clean span over %d outputs", merge, len(outs))
	}
}
