package mr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain makes the test binary double as the ProcMode worker binary:
// jobs are registered for both roles, then MaybeProcWorker hijacks the
// process when the driver re-executed it with the worker environment.
func TestMain(m *testing.M) {
	RegisterProc(procWordcount)
	RegisterProc(procWordcountNoCombine)
	RegisterProc(procFloatKeys)
	RegisterProc(procFloatStructKeys)
	RegisterProc(procOrderKeys)
	RegisterProc(procOrderKeysBatch)
	RegisterProc(procWordcountBatch)
	RegisterProc(procWordcountBoth)
	RegisterProc(procNaNKeys)
	RegisterProc(procAnyKeys)
	RegisterProc(procPointerKeys)
	RegisterProc(procPointerValues)
	RegisterProc(hPerNode)
	RegisterProc(hSum)
	RegisterProc(hAggregate)
	MaybeProcWorker()
	os.Exit(m.Run())
}

type procWC struct {
	Word  string
	Count int
}

var procWordcount = &Job[string, string, int, procWC]{
	Name: "mr-proc-wordcount",
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
	Reduce: func(k string, vs []int, emit func(procWC)) {
		s := 0
		for _, v := range vs {
			s += v
		}
		emit(procWC{Word: k, Count: s})
	},
}

var procWordcountNoCombine = &Job[string, string, int, procWC]{
	Name:   "mr-proc-wordcount-nocombine",
	Map:    procWordcount.Map,
	Reduce: procWordcount.Reduce,
}

func procLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%02d w%02d common", i%19, (i*5)%29)
	}
	return lines
}

// TestProcModeMatchesInProcess is the veneer-level determinism
// contract: the same Job, run in-process and across worker processes,
// produces identical outputs — same records, same order.
func TestProcModeMatchesInProcess(t *testing.T) {
	lines := procLines(90)

	inproc := *procWordcount
	wantOuts, _, err := inproc.Run(lines)
	if err != nil {
		t.Fatal(err)
	}

	pj := *procWordcount
	pj.Config = Config{
		Workers:    3,
		Partitions: 4,
		ProcMode:   true,
	}
	outs, met, err := pj.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, wantOuts) {
		t.Fatalf("ProcMode output diverges from in-process output:\n got %d records\nwant %d records", len(outs), len(wantOuts))
	}

	if met.MapInputs != 90 || met.Outputs != int64(len(wantOuts)) {
		t.Errorf("logical metrics off: %+v", met)
	}
	// The shuffle crossed a real process boundary: spool bytes and
	// read-back are non-zero even though no SpillDir was configured.
	if met.BytesSpilled <= 0 || met.DiskBytesRead <= 0 {
		t.Errorf("boundary bytes not accounted: spilled=%d read=%d", met.BytesSpilled, met.DiskBytesRead)
	}
	if met.TaskRetries != 0 || met.WorkerDeaths != 0 || met.LeaseExpirations != 0 {
		t.Errorf("clean ProcMode run recorded faults: %+v", met)
	}
}

// TestProcModeReportsGroupSizes: the q distribution a ProcMode round
// reports is the one the in-process round counts.
func TestProcModeReportsGroupSizes(t *testing.T) {
	lines := procLines(90)
	_, want, err := procWordcountNoCombine.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.ReducerInputLog2) == 0 {
		t.Fatal("in-process round reported no group sizes")
	}
	pj := *procWordcountNoCombine
	pj.Config = Config{Workers: 3, Partitions: 4, ProcMode: true}
	_, met, err := pj.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(met.ReducerInputLog2, want.ReducerInputLog2) {
		t.Errorf("ProcMode ReducerInputLog2 = %v, in process %v", met.ReducerInputLog2, want.ReducerInputLog2)
	}
}

// procWordcountBoth sets both reduce functions. Its ReduceBatch counts
// every word twice, so the output shows which of the two ran.
var procWordcountBoth = &Job[string, string, int, procWC]{
	Name:    "mr-proc-wordcount-both",
	Map:     procWordcount.Map,
	Combine: procWordcount.Combine,
	Reduce:  procWordcount.Reduce,
	ReduceBatch: func(k string, vs []int, emit func(procWC)) {
		procWordcount.Reduce(k, vs, func(o procWC) { emit(procWC{Word: o.Word, Count: 2 * o.Count}) })
	},
}

// TestReduceBatchWinsInBothExecutors: a job that sets Reduce and
// ReduceBatch runs ReduceBatch, in process and in ProcMode alike.
func TestReduceBatchWinsInBothExecutors(t *testing.T) {
	lines := procLines(30)
	counts, _, err := procWordcount.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]procWC, len(counts))
	for i, c := range counts {
		want[i] = procWC{Word: c.Word, Count: 2 * c.Count}
	}
	for _, procMode := range []bool{false, true} {
		j := *procWordcountBoth
		j.Config = Config{Workers: 2, Partitions: 2, ProcMode: procMode}
		outs, _, err := j.Run(lines)
		if err != nil {
			t.Fatalf("ProcMode %v: %v", procMode, err)
		}
		if !reflect.DeepEqual(outs, want) {
			t.Errorf("ProcMode %v: outputs are not ReduceBatch's:\n got %v\nwant %v", procMode, outs, want)
		}
	}
}

// TestProcModeReducerOverflow: the paper's q limit keeps its sentinel
// across the process boundary, with the offending group's size.
func TestProcModeReducerOverflow(t *testing.T) {
	pj := *procWordcountNoCombine
	pj.Config = Config{
		Workers:         2,
		Partitions:      3,
		MaxReducerInput: 5,
		ProcMode:        true,
	}
	_, met, err := pj.Run(procLines(40)) // "common" appears 40 times
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
	if met.MaxReducerInput != 40 {
		t.Errorf("MaxReducerInput = %d, want the offending group's 40", met.MaxReducerInput)
	}
}

// TestProcModeDefaultPlan: ProcMode resolves an unset worker count and a
// non-power-of-two partition count exactly as the in-process engine
// does — NumCPU workers, 3 partitions rounded up to 4 — so the outputs
// match and four partitions are reduced.
func TestProcModeDefaultPlan(t *testing.T) {
	lines := procLines(90) // 19+29+1 distinct words: every partition gets keys
	cfg := Config{Workers: 0, Partitions: 3}
	inproc := *procWordcount
	inproc.Config = cfg
	want, wantMet, err := inproc.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantMet.Partitions) != 4 {
		t.Fatalf("in-process run used %d partitions, want 4", len(wantMet.Partitions))
	}
	pj := *procWordcount
	pj.Config = cfg
	pj.Config.ProcMode = true
	pj.Config.ProcDir = t.TempDir()
	got, _, err := pj.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProcMode outputs diverge from the in-process run\ngot  %v\nwant %v", got, want)
	}
	outs, err := filepath.Glob(filepath.Join(pj.Config.ProcDir, "out-p*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Errorf("ProcMode reduced %d partitions (%v), want 4", len(outs), outs)
	}
}

// TestProcModeRejectsInProcessSettings: a setting only the in-process
// engine honours is a configuration error naming the field, returned
// before any worker process spawns (the unregistered job name would
// otherwise fail in proc.Run).
func TestProcModeRejectsInProcessSettings(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"SpillDir", Config{MemoryBudget: 8, SpillDir: t.TempDir()}},
		{"FailureEveryN", Config{FailureEveryN: 2}},
		{"MaxRetries", Config{MaxRetries: 3}},
	} {
		j := *procWordcount
		j.Name = "mr-proc-unregistered"
		j.Config = tc.cfg
		j.Config.ProcMode = true
		_, _, err := j.Run(procLines(10))
		if err == nil || !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s in ProcMode: err = %v, want a configuration error naming it", tc.field, err)
		}
	}
}

// TestProcModeFoldsEachMapTask: a ProcMode map task folds its combiner
// round's values as the in-process one does (engine.RunMapAttempt), so
// every map task ships one value per distinct key whatever the budget
// its shuffle seals under: PairsShuffled is the sum over Plan.MapTasks
// of each task's distinct keys.
func TestProcModeFoldsEachMapTask(t *testing.T) {
	lines := procLines(150)
	for _, budget := range []int{0, 8, 16} {
		pj := *procWordcount
		pj.Config = Config{Workers: 2, Partitions: 4, MemoryBudget: budget, ProcMode: true}
		var want int64
		for _, task := range pj.Config.plan().MapTasks(len(lines)) {
			keys := map[string]bool{}
			for _, line := range lines[task.Lo:task.Hi] {
				pj.Map(line, func(k string, _ int) { keys[k] = true })
			}
			want += int64(len(keys))
		}
		_, met, err := pj.Run(lines)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if met.PairsShuffled != want {
			t.Errorf("budget %d: PairsShuffled = %d, want %d (each map task's distinct keys)", budget, met.PairsShuffled, want)
		}
	}
}
