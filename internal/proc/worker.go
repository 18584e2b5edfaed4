// The worker process: poll the driver for tasks over the unix socket,
// heartbeat the lease while executing, map a task's section of the input
// image into fenced spool sections committed through the manifest,
// reduce a partition by adopting its sections into the shuffle's reader
// into an output run file, and report. The task bodies are the
// in-process engine's: a map task runs engine.RunMapAttempt (with its
// combiner fold), a reduce task engine.PlanReduce and then
// engine.RunReduceAttempt per key range, both over internal/shuffle;
// there is no map loop, merge, range planner or run encoder in this
// package. A worker's map task is the in-process one — one shuffle
// writer sealing sorted runs under the budget — with its runs sent to
// spool sections and committed through the manifest. The executors
// differ on purpose in one place only, reduce scheduling: a worker runs
// one goroutine per planned key range of its partition, while in
// process partitions and ranges are units LPT-balanced onto
// Plan.Workers goroutines, with fault injection and retries.
//
// Workers are the same binary as the driver — the role travels in the
// environment, so MaybeWorker at the top of main (or TestMain) turns
// any process into a worker when the driver spawned it as one.
package proc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// workerCtx bounds the worker's control-plane retries. Workers live and
// die by the driver's word (and its process lifetime), so the context
// is unbounded; the retry budgets bound each interaction.
func workerCtx() context.Context { return context.Background() }

// Environment contract between driver and worker. Everything a worker
// needs rides in env so the spawn command's argv is unconstrained.
const (
	envWorker = "MR_PROC_WORKER" // "1" marks a worker process
	envSocket = "MR_PROC_SOCKET" // driver's unix socket path
	envDir    = "MR_PROC_DIR"    // job scratch directory
	envJob    = "MR_PROC_JOB"    // registered job name
	envID     = "MR_PROC_ID"     // this worker's identity

	// Observability (Options.WorkerTraceDir).
	envTraceDir = "MR_PROC_TRACE" // dir for per-worker Perfetto traces

	// Test knobs (crash injection; see crashPoint).
	envSlowMS = "MR_PROC_SLOW_MS" // dwell this many ms inside every task
	envKill   = "MR_PROC_KILL"    // "point:taskID" self-SIGKILL spec
)

// MaybeWorker turns the current process into a worker and never returns
// if the driver spawned it as one; otherwise it is a no-op. Call it
// first thing in main (or TestMain) of any binary that runs a job in
// ProcMode: the driver spawns its workers by re-executing the current
// binary (os.Executable()).
func MaybeWorker() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	if err := workerMain(); err != nil {
		fmt.Fprintln(os.Stderr, "mrworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerMain runs the worker loop against the driver named by the
// environment until the driver says exit (nil) or becomes unreachable.
func workerMain() error {
	id := os.Getenv(envID)
	dir := os.Getenv(envDir)
	socket := os.Getenv(envSocket)
	jobName := os.Getenv(envJob)
	if id == "" || dir == "" || socket == "" || jobName == "" {
		return fmt.Errorf("proc: worker env incomplete (%s=%q %s=%q %s=%q %s=%q)",
			envID, id, envDir, dir, envSocket, socket, envJob, jobName)
	}
	job, err := lookup(jobName)
	if err != nil {
		return err
	}
	ws, err := newWorkerState(id, dir, socket)
	if err != nil {
		return err
	}
	defer ws.close()
	return ws.loop(job)
}

// workerState is one worker process's runtime: its RPC client, the
// job's resolved plan (from the registration reply), spools, manifest,
// and the crash-injection knobs.
type workerState struct {
	id     string
	dir    string
	client *rpc.Client
	plan   engine.Plan

	spools   *spoolSet
	manifest *manifestWriter

	slow      time.Duration // dwell inside every task (test knob)
	killPoint string        // crash point name ("" disables)
	killID    int           // task/partition the crash point is armed for

	// rec is this process's own recorder (non-nil only when the driver
	// set MR_PROC_TRACE): task spans land on lane, and each map task's
	// shuffle emits its seal/block events on partition lanes inside it.
	// The trace is exported to traceFile on clean exit.
	rec       *obs.Recorder
	lane      *obs.Ring
	traceFile string
}

// rpcBackoff is the worker's policy for transient control-plane
// failures: dialing the socket before the driver listens, a report call
// racing a driver hiccup: 10ms..2s doubling, 10 tries.
var rpcBackoff = Backoff{}

func newWorkerState(id, dir, socket string) (*workerState, error) {
	var client *rpc.Client
	err := rpcBackoff.Retry(workerCtx(), func() error {
		var err error
		client, err = rpc.Dial("unix", socket)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("proc: dialing driver at %s: %w", socket, err)
	}
	var reg RegisterReply
	if err := client.Call("Coord.Register", RegisterArgs{Worker: id, PID: os.Getpid()}, &reg); err != nil {
		client.Close()
		return nil, fmt.Errorf("proc: registering with driver: %w", err)
	}
	ws := &workerState{id: id, dir: dir, client: client, plan: reg.Plan, spools: newSpoolSet(dir, id)}
	if ms, err := strconv.Atoi(os.Getenv(envSlowMS)); err == nil && ms > 0 {
		ws.slow = time.Duration(ms) * time.Millisecond
	}
	if spec := os.Getenv(envKill); spec != "" {
		if point, idStr, ok := strings.Cut(spec, ":"); ok {
			if n, err := strconv.Atoi(idStr); err == nil {
				ws.killPoint, ws.killID = point, n
			}
		}
	}
	if tdir := os.Getenv(envTraceDir); tdir != "" {
		ws.rec = obs.NewRecorder(0)
		seq := 0
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "w")); err == nil {
			seq = n
		}
		ws.lane = ws.rec.Lane(obs.LaneProc, seq)
		ws.traceFile = filepath.Join(tdir, "trace-"+id+".json")
	}
	return ws, nil
}

func (ws *workerState) close() {
	ws.spools.closeAll()
	if ws.manifest != nil {
		ws.manifest.close()
	}
	if ws.rec != nil {
		if err := obs.WriteTraceFile(ws.traceFile, ws.rec); err != nil {
			fmt.Fprintf(os.Stderr, "mrworker %s: dropping trace: %v\n", ws.id, err)
		}
	}
	ws.client.Close()
}

func (ws *workerState) ensureManifest() error {
	if ws.manifest != nil {
		return nil
	}
	m, err := openManifest(ws.dir, ws.id)
	if err != nil {
		return err
	}
	ws.manifest = m
	return nil
}

// crashPoint self-SIGKILLs when the named injection point is armed for
// this task. The kill is one-shot per job directory: an exclusive-create
// marker file makes sure a replacement worker running the re-executed
// task does not die again, so each knob injects exactly one crash. pre
// runs after the marker is claimed and before the kill (e.g. flushing a
// torn section's bytes into the kernel).
func (ws *workerState) crashPoint(point string, id int, pre func()) {
	if ws.killPoint != point || ws.killID != id {
		return
	}
	marker := filepath.Join(ws.dir, fmt.Sprintf("killed-%s-%d", point, id))
	f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // already fired once
	}
	f.Close()
	if pre != nil {
		pre()
	}
	p, _ := os.FindProcess(os.Getpid())
	p.Kill()
	select {} // SIGKILL is not instantaneous; never execute past this point
}

// loop polls for tasks until exit; a TaskWait (the driver parked the
// poll and nothing came) is answered by polling again at once. Transient
// RPC failures are retried with backoff; a driver that stays unreachable
// ends the worker.
func (ws *workerState) loop(job runnable) error {
	for {
		var t Task
		err := rpcBackoff.Retry(workerCtx(), func() error {
			t = Task{}
			return ws.client.Call("Coord.Poll", PollArgs{Worker: ws.id}, &t)
		})
		if err != nil {
			return fmt.Errorf("proc: polling driver: %w", err)
		}
		switch t.Kind {
		case TaskExit:
			return nil
		case TaskMap:
			rep := ws.runTask(TaskMap, t, func() (any, error) { return job.runMapTask(ws, t) })
			ws.report("Coord.MapDone", &Ack{}, rep.(MapReport))
		case TaskReduce:
			rep := ws.runTask(TaskReduce, t, func() (any, error) { return job.runReduceTask(ws, t) })
			ws.report("Coord.ReduceDone", &Ack{}, rep.(ReduceReport))
		}
	}
}

// runTask executes one assignment under a heartbeat, converting an
// execution error into a failure report.
func (ws *workerState) runTask(kind TaskKind, t Task, run func() (any, error)) any {
	op := obs.OpProcMapTask
	if kind == TaskReduce {
		op = obs.OpProcReduceTask
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.heartbeatLoop(done, kind, t.ID, t.Attempt, t.HeartbeatEvery)
	}()
	rep, err := func() (any, error) {
		// Stop the heartbeat (and reap its goroutine) on every way out of
		// the task body — success, error, or a panic unwinding through us
		// — so no ticker or goroutine outlives its task.
		defer func() {
			close(done)
			wg.Wait()
		}()
		ws.lane.Begin(op, int64(t.ID), int64(t.Attempt))
		if ws.slow > 0 {
			time.Sleep(ws.slow)
		}
		return run()
	}()
	if err != nil {
		ws.lane.End(op, int64(t.ID), 1)
	} else {
		ws.lane.End(op, int64(t.ID), 0)
	}
	if err == nil {
		return rep
	}
	if kind == TaskMap {
		return MapReport{Worker: ws.id, Task: t.ID, Attempt: t.Attempt, Err: err.Error(), Fatal: isFatal(err)}
	}
	// A failed reduce keeps the group size it measured: the driver judges
	// the q limit by it.
	return ReduceReport{Worker: ws.id, Part: t.ID, Attempt: t.Attempt, Groups: rep.(ReduceReport).Groups,
		Err: err.Error(), Fatal: isFatal(err)}
}

// heartbeatLoop renews the lease on (kind, id, attempt) every interval
// until the task finishes, the driver cancels the attempt, or the
// driver becomes unreachable. It only renews — cancellation does not
// abort the running task; the driver's fencing refuses the stale report
// either way.
func (ws *workerState) heartbeatLoop(done <-chan struct{}, kind TaskKind, id, attempt int, every time.Duration) {
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			var rep HeartbeatReply
			err := ws.client.Call("Coord.Heartbeat", HeartbeatArgs{
				Worker: ws.id, Kind: kind, ID: id, Attempt: attempt,
			}, &rep)
			if err != nil || rep.Cancel {
				return
			}
		}
	}
}

// report delivers a completion report with retries. A report that still
// cannot be delivered is dropped: the lease will expire and the task
// re-run, which is correct (if slower) — reports are advisory to the
// worker, authoritative only once the driver accepts them.
func (ws *workerState) report(method string, reply any, args any) {
	err := rpcBackoff.Retry(workerCtx(), func() error {
		return ws.client.Call(method, args, reply)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrworker %s: dropping %s report: %v\n", ws.id, method, err)
	}
}

// fatalErr marks an execution error retrying cannot fix (an unencodable
// key type, a violated reducer-size limit): the driver fails the job
// instead of re-granting the task. A NaN key is one too: the records
// emit it on every attempt.
type fatalErr struct{ error }

func fatal(err error) error {
	if err == nil {
		return nil
	}
	return fatalErr{err}
}

func isFatal(err error) bool {
	var f fatalErr
	return errors.As(err, &f) || errors.Is(err, shuffle.ErrNaNKey)
}

// sectionSink is a map task's shuffle.SealSink: every sealed run becomes
// one fenced spool section — the seam between the shuffle's map side
// and the per-task section + manifest commit protocol. The shuffle
// encodes; the sink only supplies the spool's writer and records the
// section. Seals arrive on the task's one writer, in seal order.
type sectionSink struct {
	ws      *workerState
	task    int
	attempt int
	seq     map[int]int // next section ordinal per partition
	secs    []Section
}

// write appends one sealed run as a spool section. A fill error the
// writer did not cause is an encoding failure, which no retry fixes. The
// torn-section crash knob arms only on the task's first section and
// fires between its body and its footer: the spool gets a flushed group
// section with no index and no manifest record.
func (sk *sectionSink) write(part int, fill func(w *runfile.Writer) error) error {
	arm := len(sk.secs) == 0
	sec, err := sk.ws.spools.appendSection(sk.task, sk.attempt, part, sk.seq[part], func(w *runfile.Writer) error {
		if err := fill(w); err != nil {
			if w.Err() == nil {
				return fatal(err)
			}
			return err
		}
		if arm {
			sk.ws.crashPoint("map-torn", sk.task, func() { w.Flush() })
		}
		return nil
	})
	if err != nil {
		return err
	}
	sk.seq[part]++
	sk.secs = append(sk.secs, sec)
	return nil
}

// runMapTask maps records [Lo, Hi) — read from the task's own value
// section of the input image, nothing else of it — with
// engine.RunMapAttempt into one writer of a worker-local shuffle, the
// in-process map side: under the job's MemoryBudget the writer seals
// sorted, combined runs mid-task, and Commit seals the rest. A
// combiner's fold holds one slot per distinct key of the task, as in
// process. Every sealed run lands in the spools as one fenced section
// via sectionSink; the task then commits all its sections with one
// manifest record before reporting (the manifest write is still the
// task's durability point, and with MemoryBudget zero the layout is one
// section per chunk of a non-empty partition).
//
// The body's output depends only on the records, and the seals only on
// that pair stream, so a re-executed attempt writes byte-identical
// sections.
func (j *jobImpl[I, K, V, O]) runMapTask(ws *workerState, t Task) (MapReport, error) {
	ins, err := readInputs[I](filepath.Join(ws.dir, inputsFile), t.InputOffset, t.InputBytes, t.Hi-t.Lo)
	if err != nil {
		// The image is the driver's, the same bytes for every attempt.
		return MapReport{}, fatal(fmt.Errorf("proc: map task %d: %w", t.ID, err))
	}
	if err := ws.ensureManifest(); err != nil {
		return MapReport{}, err
	}
	sh := shuffle.New[K, V](shuffle.Options{
		Partitions:       ws.plan.Partitions,
		MaxBufferedPairs: ws.plan.MemoryBudget,
		Recorder:         ws.rec,
	})
	defer sh.Close()
	if part := j.r.Partitioner; part != nil {
		sh.SetPartitioner(part)
	}
	if j.r.Combine != nil {
		sh.SetCombiner(j.r.Combine)
	}
	sink := &sectionSink{ws: ws, task: t.ID, attempt: t.Attempt, seq: make(map[int]int)}
	sh.SetSealSink(sink.write)

	in := sh.NewIngester(1)
	tw := in.Task(t.ID, t.Attempt)
	pairsEmitted := engine.RunMapAttempt(j.r, slices.Values([][]I{ins}), tw.Emit)
	if err := tw.Commit(); err != nil {
		return MapReport{}, fmt.Errorf("proc: streaming map task %d: %w", t.ID, err)
	}
	if err := in.Finish(); err != nil {
		return MapReport{}, fmt.Errorf("proc: finishing map task %d: %w", t.ID, err)
	}
	secs := sink.secs
	sortSections(secs)
	peak := sh.PeakResidentPairs()
	if err := ws.manifest.commit(manifestEntry{
		Task: t.ID, Attempt: t.Attempt, PairsEmitted: pairsEmitted, PeakResident: peak, Sections: secs,
	}); err != nil {
		return MapReport{}, err
	}
	// Committed-but-unreported injection: the manifest record is durable,
	// the report never leaves — salvage must adopt this task.
	ws.crashPoint("map-manifest", t.ID, nil)
	return MapReport{
		Worker: ws.id, Task: t.ID, Attempt: t.Attempt,
		PairsEmitted: pairsEmitted, Sections: secs, PeakResident: peak,
	}, nil
}

// runReduceTask reduces one partition with the in-process engine's
// reduce bodies: the committed sections — each a sorted run, in
// sortSections order from the driver — are adopted into a one-partition
// shuffle as borrowed disk runs; engine.PlanReduce enforces
// MaxReducerInput (a counting merge of the adopted indexes, no value
// read) and cuts the key ranges; one RangeReader holds the spools open
// (shared handles and mappings) while engine.RunReduceAttempt reduces
// the ranges concurrently, counting their groups for the report. The
// outputs, range after range, go to the partition's output run file
// (writeOutputs) — byte-identical whether or not the merge was split.
// Only the indexes, one decoded group per running range and the
// partition's outputs are resident: the input side's memory bound is
// the largest single group times the range concurrency, not the
// partition size.
func (j *jobImpl[I, K, V, O]) runReduceTask(ws *workerState, t Task) (ReduceReport, error) {
	ws.crashPoint("reduce", t.ID, nil)
	sh := shuffle.New[K, V](shuffle.Options{Partitions: 1, Recorder: ws.rec})
	defer sh.Close()
	for _, sec := range t.Sections {
		if err := sh.AdoptRun(0, sec.Path, sec.Offset, sec.Length); err != nil {
			return ReduceReport{}, fmt.Errorf("proc: partition %d: %w", t.ID, err)
		}
	}
	st, ranges, err := engine.PlanReduce(ws.plan, j.r.Name, sh)
	if errors.Is(err, engine.ErrReducerOverflow) {
		return ReduceReport{Groups: []shuffle.GroupProfile{{MaxGroup: st.MaxReducerInput}}}, fatal(err)
	} else if err != nil {
		return ReduceReport{}, fmt.Errorf("proc: partition %d: %w", t.ID, err)
	}
	units := ranges[0]
	nRanges := int64(len(units))
	if units == nil {
		units = []shuffle.KeyRange[K]{{}} // the unbounded range: the whole partition
	}
	rr, err := sh.Partition(0).OpenRangeReader()
	if err != nil {
		return ReduceReport{}, fmt.Errorf("proc: opening partition %d: %w", t.ID, err)
	}
	defer rr.Close()
	outs := make([]engine.Collector[K, O], len(units))
	groups := make([]shuffle.GroupProfile, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for u := range units {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			groups[u], errs[u] = engine.RunReduceAttempt(j.r, rr, units[u], &outs[u])
		}(u)
	}
	wg.Wait()
	var outputs int64
	for u := range units {
		if errs[u] != nil {
			return ReduceReport{}, fmt.Errorf("proc: reducing partition %d: %w", t.ID, errs[u])
		}
		outputs += int64(outs[u].Len())
	}
	path := outPath(ws.dir, t.ID, t.Attempt)
	size, err := writeOutputs(path, outs)
	if err != nil {
		return ReduceReport{}, err
	}
	return ReduceReport{
		Worker: ws.id, Part: t.ID, Attempt: t.Attempt, OutPath: path, OutBytes: size,
		Outputs: outputs, BytesRead: sh.DiskBytesRead(), Ranges: nRanges, Groups: groups,
	}, nil
}

// writeOutputs writes one reduce attempt's output run file: a group per
// key that emitted, holding its outputs, ranges in order — canonical key
// order, the image the driver's output merge adopts. It returns the
// file's size.
func writeOutputs[K comparable, O any](path string, cs []engine.Collector[K, O]) (int64, error) {
	var enc shuffle.GroupEncoder[K, O]
	w, err := writeRun(path, func(w *runfile.Writer) (err error) {
		for i := range cs {
			cs[i].ForEach(func(k K, outs []O) {
				if len(outs) > 0 && err == nil {
					err = enc.Group(w, k, outs)
				}
			})
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return w.BytesWritten(), nil
}

// sortSections orders sections by (Part, Task, Attempt, Seq): one map
// attempt's by partition, then seal order (a writer seals partitions in
// whatever order their buckets fill, so the manifest must not record
// arrival order); one partition's reduce inputs in the value-order contract —
// map-task order, and within a task its winning attempt's seal order.
// Attempt breaks the tie when a salvaged and a re-executed attempt's
// sections coexist for one task.
func sortSections(secs []Section) {
	slices.SortFunc(secs, func(a, b Section) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(a.Task, b.Task),
			cmp.Compare(a.Attempt, b.Attempt), cmp.Compare(a.Seq, b.Seq))
	})
}
