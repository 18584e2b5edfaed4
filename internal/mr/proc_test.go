package mr

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
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
		Workers:     3,
		Partitions:  4,
		ProcMode:    true,
		ProcTimeout: 90 * time.Second,
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

// TestProcModeReducerOverflow: the paper's q limit keeps its sentinel
// across the process boundary.
func TestProcModeReducerOverflow(t *testing.T) {
	pj := *procWordcountNoCombine
	pj.Config = Config{
		Workers:         2,
		Partitions:      3,
		MaxReducerInput: 5,
		ProcMode:        true,
		ProcTimeout:     90 * time.Second,
	}
	_, _, err := pj.Run(procLines(40)) // "common" appears 40 times
	if !errors.Is(err, ErrReducerOverflow) {
		t.Fatalf("err = %v, want ErrReducerOverflow", err)
	}
}
