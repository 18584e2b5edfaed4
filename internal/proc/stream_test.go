// Tests for the worker-side streaming data path: section ordering,
// heartbeat lifecycle, fault injection through the in-worker shuffle,
// and the determinism of salvage + retry rounds under memory pressure.
package proc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/errfs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// TestSortSectionsTotalOrder: within a partition (Task, Attempt, Seq)
// is a total order, so any arrival permutation sorts to the same
// sequence — the property the old Task-only sort (unstable sort.Slice
// under ties) did not have.
func TestSortSectionsTotalOrder(t *testing.T) {
	canonical := []Section{
		{Task: 0, Attempt: 1, Seq: 0}, {Task: 0, Attempt: 1, Seq: 1},
		{Task: 0, Attempt: 2, Seq: 0}, {Task: 0, Attempt: 2, Seq: 1},
		{Task: 1, Attempt: 0, Seq: 0}, {Task: 1, Attempt: 0, Seq: 2},
		{Task: 2, Attempt: 0, Seq: 0},
	}
	perms := [][]int{
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 2, 5, 1, 4},
		{1, 4, 0, 5, 3, 6, 2},
	}
	for pi, perm := range perms {
		got := make([]Section, len(canonical))
		for i, j := range perm {
			got[i] = canonical[j]
		}
		sortSections(got)
		if !reflect.DeepEqual(got, canonical) {
			t.Errorf("permutation %d did not sort to the canonical order:\n got %+v\nwant %+v", pi, got, canonical)
		}
	}
}

// startStubDriver serves the real Coord RPC surface over a unix socket
// with a driver that holds no leases — every heartbeat is fenced —
// without spawning any worker processes.
func startStubDriver(t *testing.T) *rpc.Client {
	t.Helper()
	d := newDriver("stub", Options{}, t.TempDir(), nil)
	socket := filepath.Join(t.TempDir(), "c.sock")
	l, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	if err := srv.Register(&Coord{d: d}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()
	client, err := rpc.Dial("unix", socket)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		l.Close()
		wg.Wait()
	})
	return client
}

// TestRunTaskStopsHeartbeatOnErrorPath: a failing task must still stop
// and join its heartbeat goroutine before runTask returns — repeated
// failures must not leak goroutines or tickers. The stub driver holds
// no leases, so every heartbeat comes back Cancel, exercising the
// loop's early-exit path as well as the done-channel path.
func TestRunTaskStopsHeartbeatOnErrorPath(t *testing.T) {
	client := startStubDriver(t)
	ws := &workerState{id: "w0", dir: t.TempDir(), client: client}
	ws.spools = newSpoolSet(ws.dir, ws.id)

	// Warm-up RPC so the connection's server-side goroutine exists
	// before the baseline is measured.
	if err := client.Call("Coord.Heartbeat", HeartbeatArgs{Worker: "w0"}, &HeartbeatReply{}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		rep := ws.runTask(TaskMap, Task{ID: i, HeartbeatEvery: time.Millisecond}, func() (any, error) {
			time.Sleep(10 * time.Millisecond) // several ticks, all fenced
			return nil, errors.New("synthetic task failure")
		})
		mr, ok := rep.(MapReport)
		if !ok || mr.Err == "" {
			t.Fatalf("error-path report = %#v, want MapReport with Err", rep)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after failed tasks: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerStreamingFaultMarch marches an injected I/O failure through
// every filesystem call the worker-side streaming path makes under
// memory pressure — the stash swaps and absorb read-backs between a map
// task's emissions and its sealed spool sections. One long-running
// sub-task (nothing absorbable until the end) forces the pressure path
// through the injected FS; every outcome must be either success (the
// fault was absorbable) or an error with ErrInjected still in the
// chain. The sealed sections themselves go through the real filesystem
// — exactly as in a worker process, where section faults are injected
// by kill -9 instead.
func TestWorkerStreamingFaultMarch(t *testing.T) {
	lines := genLines(40)
	run := func(fs runfile.FS) (int64, error) {
		dir := t.TempDir()
		ws := &workerState{id: "w0", dir: dir, spools: newSpoolSet(dir, "w0")}
		defer ws.spools.closeAll()
		sink := &sectionSink{ws: ws, task: 0, attempt: 0, seq: make(map[int]int)}
		sh := shuffle.New[string, int](shuffle.Options{
			Partitions:       4,
			MaxBufferedPairs: 8,
			SpillDir:         t.TempDir(),
			FS:               fs,
		})
		defer sh.Close()
		sh.SetSealSink(sink.write)
		in := sh.NewIngester()
		tw := in.Task(0, 0)
		for _, line := range lines {
			for _, w := range strings.Fields(line) {
				tw.Emit(w, 1)
			}
		}
		if err := tw.Commit(); err != nil {
			return 0, err
		}
		if err := in.Finish(); err != nil {
			return 0, err
		}
		if err := sh.SealAllLive(); err != nil {
			return 0, err
		}
		var pairs int64
		for _, sec := range sink.secs {
			pairs += sec.Pairs
		}
		return pairs, nil
	}

	// Counting pass: the pressure path must actually run, or the march
	// below is vacuous.
	probe := errfs.New(nil)
	wantPairs, err := run(probe)
	if err != nil {
		t.Fatalf("fault-free streaming round failed: %v", err)
	}
	if wantPairs <= 0 {
		t.Fatal("no pairs reached the spool sections")
	}
	if probe.Calls(errfs.OpCreate) == 0 || probe.Calls(errfs.OpWrite) == 0 {
		t.Fatal("pressure path never touched the injected FS; the march would be vacuous")
	}

	for _, op := range []errfs.Op{errfs.OpCreate, errfs.OpWrite, errfs.OpRead, errfs.OpReadAt, errfs.OpClose, errfs.OpRemove} {
		total := probe.Calls(op)
		for nth := 1; nth <= total; nth++ {
			fs := errfs.New(nil)
			fs.FailAt(op, nth, nil)
			pairs, err := run(fs)
			if err == nil {
				if pairs != wantPairs {
					t.Errorf("%s call %d: fault silently lost data: %d pairs, want %d", op, nth, pairs, wantPairs)
				}
				continue
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Errorf("%s call %d: injected fault lost from chain: %v", op, nth, err)
			}
		}
	}
}

// registerOrderJob registers a value-order-sensitive job: the reduce
// output is an order-dependent hash chain over each key's values, so
// any instability in section ordering (salvaged vs re-executed
// attempts, seal splits under memory pressure) changes the output.
// Registered from TestMain via registerTestJobs.
func registerOrderJob() {
	Register(engine.Round[string, string, string, wcOut]{
		Name: "order-chain",
		Map: func(line string, emit func(string, string)) {
			for i, w := range strings.Fields(line) {
				emit(w, fmt.Sprintf("%s#%d", line, i))
			}
		},
		Reduce: func(k string, vs []string, emit func(wcOut)) {
			h := fnv.New32a()
			for _, v := range vs {
				h.Write([]byte(v))
			}
			emit(wcOut{Word: k, Count: int(h.Sum32())})
		},
	})
}

// TestSalvageRetryRoundDeterministic: with a MemoryBudget small enough
// that every task spills multi-section output, a salvage round
// (manifest committed, report lost) and a retry round (torn section,
// task re-executed) must both produce output byte-identical to the
// fault-free round, across repeated runs — the regression test for
// (Task, Attempt, Seq) section ordering with an order-sensitive
// reducer.
func TestSalvageRetryRoundDeterministic(t *testing.T) {
	lines := genLines(60)
	base := func(extraEnv ...string) Options {
		return Options{
			Plan:      engine.Plan{Workers: 2, Partitions: 5, MemoryBudget: 8},
			LeaseTTL:  time.Second,
			Timeout:   90 * time.Second,
			WorkerEnv: append([]string{"MR_PROC_SLOW_MS=25"}, extraEnv...),
		}
	}
	clean, _, err := Run[string, string, string, wcOut]("order-chain", lines, base())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("clean round produced no output")
	}
	for _, kill := range []string{"MR_PROC_KILL=map-manifest:1", "MR_PROC_KILL=map-torn:0"} {
		for round := 0; round < 2; round++ {
			outs, met, err := Run[string, string, string, wcOut]("order-chain", lines, base(kill))
			if err != nil {
				t.Fatalf("%s round %d: %v", kill, round, err)
			}
			if met.WorkerDeaths < 1 {
				t.Errorf("%s round %d: WorkerDeaths = %d, want >= 1", kill, round, met.WorkerDeaths)
			}
			if !reflect.DeepEqual(outs, clean) {
				t.Fatalf("%s round %d: output diverges from the fault-free round", kill, round)
			}
		}
	}
}

// TestWorkerTraceExport: with WorkerTraceDir set, every worker writes
// a valid Chrome-trace JSON file on exit, even in a budgeted round
// where task spans interleave with seal events.
func TestWorkerTraceExport(t *testing.T) {
	td := t.TempDir()
	_, _, err := Run[string, string, int, wcOut]("wordcount", genLines(40), Options{
		Plan:           engine.Plan{Workers: 2, Partitions: 3, MemoryBudget: 8},
		WorkerTraceDir: td,
		Timeout:        60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(td, "trace-*.json"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no worker trace files written: %v", err)
	}
	for _, p := range traces {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: invalid trace JSON: %v", p, err)
		}
	}
}

// TestSalvageNotCountedAsRetry: a fenced attempt that salvage then
// adopts is completed work, not a re-grant — SalvagedTasks must count
// it and MapRetries must not. One worker, one map task, killed between
// its manifest commit and its report.
func TestSalvageNotCountedAsRetry(t *testing.T) {
	lines := genLines(60)
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, Options{
		Plan: engine.Plan{Workers: 1, Partitions: 3, MapChunk: len(lines)},
		// exactly one map task
		Timeout:   90 * time.Second,
		WorkerEnv: []string{"MR_PROC_KILL=map-manifest:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, 3)) {
		t.Fatal("output after salvage diverges from reference")
	}
	if met.SalvagedTasks != 1 {
		t.Errorf("SalvagedTasks = %d, want 1", met.SalvagedTasks)
	}
	if met.MapRetries != 0 {
		t.Errorf("MapRetries = %d, want 0 — the fenced attempt was salvaged, not re-run", met.MapRetries)
	}
}

// TestMapChunkedCommits drives runMapTask directly over records built to
// stress its ingester sub-task cuts — records that emit nothing, and one
// that emits many chunks' worth on its own — under MemoryBudget 0
// (one sub-task), 1 (a cut after every pair) and 8 (a cut every four
// pairs). Every budget must deliver each key's values in record order
// and stay inside the resident bound, and a second attempt of the task
// on another worker must write byte-identical sections: the cuts are a
// pure function of the records. The combine cases run a combiner round
// over the same records plus one line of many distinct words: the task
// folds (engine.RunMapAttempt), so its cuts fall in its combined output,
// and the sections hold one value per key, the key's values joined in
// record order.
func TestMapChunkedCommits(t *testing.T) {
	records := []string{"", "a b", "", "", strings.Repeat("hot ", 40) + "a", "b", "", "c a b", "", "hot"}
	job := &jobImpl[string, string, string, wcOut]{r: engine.Round[string, string, string, wcOut]{
		Map: func(line string, emit func(string, string)) {
			for i, w := range strings.Fields(line) {
				emit(w, fmt.Sprintf("%s#%d", line, i))
			}
		},
	}}
	want := make(map[string][]string)
	for _, line := range records {
		job.r.Map(line, func(k, v string) { want[k] = append(want[k], v) })
	}
	checkMapChunkedCommits(t, "", job, records, want, 48)

	wide := make([]string, 40)
	for i := range wide {
		wide[i] = fmt.Sprintf("k%02d", i)
	}
	records = append(records, strings.Join(wide, " "))
	combined := *job
	combined.r.Combine = func(_ string, vs []string) []string { return []string{strings.Join(vs, ",")} }
	want = make(map[string][]string)
	for _, line := range records {
		job.r.Map(line, func(k, v string) { want[k] = append(want[k], v) })
	}
	for k, vs := range want {
		want[k] = []string{strings.Join(vs, ",")}
	}
	checkMapChunkedCommits(t, "combine/", &combined, records, want, 88)
}

// checkMapChunkedCommits runs one TestMapChunkedCommits job as subtests
// prefix+"budget<n>": want is what its sections regroup to, wantPairs
// the pairs its map emits.
func checkMapChunkedCommits(t *testing.T, prefix string, job *jobImpl[string, string, string, wcOut], records []string, want map[string][]string, wantPairs int64) {
	const parts = 4
	for _, budget := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("%sbudget%d", prefix, budget), func(t *testing.T) {
			dir := t.TempDir()
			tasks := []mapTaskSpec{{lo: 0, hi: len(records)}}
			if _, err := writeInputs(filepath.Join(dir, inputsFile), records, tasks); err != nil {
				t.Fatal(err)
			}
			task := Task{Kind: TaskMap, Lo: 0, Hi: len(records), InputOffset: tasks[0].off, InputBytes: tasks[0].bytes}
			plan := engine.Plan{Partitions: parts, MemoryBudget: budget}.Resolve()
			run := func(worker string, attempt int) (MapReport, [][]byte) {
				ws := &workerState{id: worker, dir: dir, plan: plan, spools: newSpoolSet(dir, worker)}
				task.Attempt = attempt
				rep, err := job.runMapTask(ws, task)
				ws.spools.closeAll()
				ws.manifest.close()
				if err != nil {
					t.Fatal(err)
				}
				var images [][]byte
				for _, sec := range rep.Sections {
					data, err := os.ReadFile(sec.Path)
					if err != nil {
						t.Fatal(err)
					}
					images = append(images, data[sec.Offset:sec.Offset+sec.Length])
				}
				return rep, images
			}
			rep0, img0 := run("w0", 0)
			rep1, img1 := run("w1", 1)
			if len(rep0.Sections) != len(rep1.Sections) {
				t.Fatalf("attempt 0 wrote %d sections, attempt 1 %d", len(rep0.Sections), len(rep1.Sections))
			}
			for i, a := range rep0.Sections {
				b := rep1.Sections[i]
				if a.Part != b.Part || a.Seq != b.Seq || !bytes.Equal(img0[i], img1[i]) {
					t.Fatalf("section %d differs across attempts: p%d/s%d vs p%d/s%d", i, a.Part, a.Seq, b.Part, b.Seq)
				}
			}
			if budget > 0 {
				if len(rep0.Sections) <= parts {
					t.Errorf("%d sections under budget %d: no partition sealed mid-task", len(rep0.Sections), budget)
				}
				if bound := int64(4*budget + 16); rep0.PeakResident > bound {
					t.Errorf("PeakResident = %d, over the bound %d", rep0.PeakResident, bound)
				}
			}

			// The sections, read back in (Part, Seq) order, are the record
			// stream regrouped: every key's values in emission order.
			sh := shuffle.New[string, string](shuffle.Options{Partitions: parts})
			defer sh.Close()
			for _, sec := range rep0.Sections {
				if err := sh.AdoptRun(sec.Part, sec.Path, sec.Offset, sec.Length); err != nil {
					t.Fatal(err)
				}
			}
			got := make(map[string][]string)
			for p := 0; p < sh.NumPartitions(); p++ {
				err := sh.Partition(p).ForEachGroupBatch(func(k string, vs []string) error {
					got[k] = append(got[k], vs...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, want) || rep0.PairsEmitted != wantPairs {
				t.Fatalf("sections regroup to %v (%d pairs emitted), want %v", got, rep0.PairsEmitted, want)
			}
		})
	}
}
