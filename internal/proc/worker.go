// The worker process: poll the driver for tasks over the unix socket,
// heartbeat the lease while executing, map a task's section of the input
// image into fenced spool sections committed through the manifest,
// reduce a partition by adopting its sections into the shuffle's reader
// into an output run file, and report. Both task kinds are clients of
// internal/shuffle; there is no merge, range planner or run encoder in
// this package. Workers are the same binary as the driver — the role
// travels in the environment, so MaybeWorker at the top of main (or
// TestMain) turns any process into a worker when the driver spawned it
// as one.
package proc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

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
// first thing in main (or TestMain) of any binary used as
// Options.WorkerCommand — including the default, the current binary
// re-executed.
func MaybeWorker() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	if err := WorkerMain(); err != nil {
		fmt.Fprintln(os.Stderr, "mrworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain runs the worker loop against the driver named by the
// environment until the driver says exit (nil) or becomes unreachable.
func WorkerMain() error {
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

// workerState is one worker process's runtime: its RPC client, spools,
// manifest, and the crash-injection knobs.
type workerState struct {
	id     string
	dir    string
	client *rpc.Client

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
// racing a driver hiccup. Roughly 10ms..2s doubling, ~10 tries.
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
	var ack Ack
	if err := client.Call("Coord.Register", RegisterArgs{Worker: id, PID: os.Getpid()}, &ack); err != nil {
		client.Close()
		return nil, fmt.Errorf("proc: registering with driver: %w", err)
	}
	ws := &workerState{id: id, dir: dir, client: client, spools: newSpoolSet(dir, id)}
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

// loop polls for tasks until exit. Transient RPC failures are retried
// with backoff; a driver that stays unreachable ends the worker.
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
		case TaskWait:
			d := t.PollAfter
			if d <= 0 {
				d = 20 * time.Millisecond
			}
			time.Sleep(d)
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
	return ReduceReport{Worker: ws.id, Part: t.ID, Attempt: t.Attempt, Err: err.Error(), Fatal: isFatal(err)}
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
// instead of re-granting the task.
type fatalErr struct{ error }

func fatal(err error) error {
	if err == nil {
		return nil
	}
	return fatalErr{err}
}

func isFatal(err error) bool {
	var f fatalErr
	return errors.As(err, &f)
}

// sectionSink is a map task's shuffle.SealSink: every sealed run becomes
// one fenced spool section — the seam that marries the streaming data
// path's pressure relief to the per-task section + manifest commit
// protocol. The shuffle encodes; the sink only supplies the spool's
// writer and records the section. Seals arrive single-threaded while the
// task is mapping, but Ingester.Finish drains partitions on parallel
// workers, so writes are serialized under mu (the spool set shares one
// runfile.Writer).
type sectionSink struct {
	mu      sync.Mutex
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
	sk.mu.Lock()
	defer sk.mu.Unlock()
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
// section of the input image, nothing else of it — through a
// worker-local streaming shuffle: pairs route through an Ingester under
// the job's MemoryBudget, so pressure relief, combiner push-down, and
// spill-as-sorted-sections all happen inside the worker, mid-task —
// resident pairs stay bounded by P*MemoryBudget + BlockPairs instead
// of the task's output size. Every sealed run lands in the spools as
// one fenced section via sectionSink; the task then commits all its
// sections with one manifest record before reporting (the manifest
// write is still the task's durability point, and with MemoryBudget
// zero the layout degenerates to one section per non-empty partition).
//
// The records enter the ingester as sub-tasks committed in order, each
// cut at the first record boundary after MemoryBudget/2 emitted pairs
// (no budget: one sub-task), so absorption and its seals overlap mapping
// at one commit per half budget, not per record. Cuts depend only on the
// records and seals only on the committed pair stream, so a re-executed
// attempt writes byte-identical sections.
func (j *jobImpl[I, K, V, O]) runMapTask(ws *workerState, t Task) (MapReport, error) {
	ins, err := readInputs[I](filepath.Join(ws.dir, inputsFile), t.InputOffset, t.InputBytes, t.Hi-t.Lo)
	if err != nil {
		// The image is the driver's, the same bytes for every attempt.
		return MapReport{}, fatal(fmt.Errorf("proc: map task %d: %w", t.ID, err))
	}
	if err := ws.ensureManifest(); err != nil {
		return MapReport{}, err
	}
	// The scratch dir holds only the shuffle's transient pressure-swap
	// stash files, never committed sections — keeping it out of the job
	// dir's spool namespace keeps spool accounting literal.
	scratch := filepath.Join(ws.dir, "scratch-"+ws.id)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return MapReport{}, fmt.Errorf("proc: creating worker scratch dir: %w", err)
	}
	sh := shuffle.New[K, V](shuffle.Options{
		Partitions:       t.Partitions,
		MaxBufferedPairs: t.MemoryBudget,
		SpillDir:         scratch,
		Recorder:         ws.rec,
	})
	defer sh.Close()
	hasher := shuffle.NewStableHasher[K](0)
	var emitErr error
	sh.SetPartitioner(func(k K) int {
		p, err := j.partition(hasher, k, t.Partitions)
		if err != nil {
			if emitErr == nil {
				emitErr = err
			}
			return 0
		}
		return p
	})
	if j.spec.Combine != nil {
		sh.SetCombiner(j.spec.Combine)
	}
	sink := &sectionSink{ws: ws, task: t.ID, attempt: t.Attempt, seq: make(map[int]int)}
	sh.SetSealSink(sink.write)

	in := sh.NewIngester()
	sub, chunk := 0, 0 // current sub-task, and the pairs it holds
	tw := in.Task(sub, 0)
	var pairsEmitted int64
	emit := func(k K, v V) {
		pairsEmitted++
		chunk++
		if emitErr == nil {
			tw.Emit(k, v)
		}
	}
	for i := range ins {
		j.spec.Map(ins[i], emit)
		if emitErr != nil {
			return MapReport{}, fatal(fmt.Errorf("proc: partitioning map task %d: %w", t.ID, emitErr))
		}
		if t.MemoryBudget > 0 && chunk >= t.MemoryBudget/2 {
			if err := tw.Commit(); err != nil {
				return MapReport{}, fmt.Errorf("proc: streaming map task %d: %w", t.ID, err)
			}
			sub, chunk = sub+1, 0
			tw = in.Task(sub, 0)
		}
	}
	if err := tw.Commit(); err != nil {
		return MapReport{}, fmt.Errorf("proc: streaming map task %d: %w", t.ID, err)
	}
	if err := in.Finish(); err != nil {
		return MapReport{}, fmt.Errorf("proc: draining map task %d: %w", t.ID, err)
	}
	if err := sh.SealAllLive(); err != nil {
		return MapReport{}, fmt.Errorf("proc: final seal of map task %d: %w", t.ID, err)
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

// reduced is one key range's reduce output in canonical key order: the
// keys that emitted, and their outputs back to back (keys[i]'s are
// outs[ends[i-1]:ends[i]]).
type reduced[K comparable, O any] struct {
	keys []K
	ends []int
	outs []O
}

// runReduceTask reduces one partition the way the in-process engine
// does: the committed sections — each a sorted run, in sortSections
// order from the driver — are adopted into a one-partition shuffle
// as borrowed disk runs, and everything after that is the shuffle's own
// read side. Stats (a counting merge of the adopted indexes, no value
// read) enforces MaxReducerInput; PlanReduceRanges cuts class-aligned
// key ranges when Task.ReduceSplitPairs asks for them; one RangeReader
// holds the spools open (shared handles and mappings) while the ranges
// run the k-way merge concurrently, reducing every group in canonical
// key order as it surfaces. The outputs, range after range, go to the
// partition's output run file (writeOutputs) — byte-identical whether or
// not the merge was split. Only the indexes, one decoded group per
// running range and the partition's outputs are resident: the input
// side's memory bound is the largest single group times the range
// concurrency, not the partition size.
func (j *jobImpl[I, K, V, O]) runReduceTask(ws *workerState, t Task) (ReduceReport, error) {
	ws.crashPoint("reduce", t.ID, nil)
	sh := shuffle.New[K, V](shuffle.Options{Partitions: 1, Recorder: ws.rec})
	defer sh.Close()
	for _, sec := range t.Sections {
		if err := sh.AdoptRun(0, sec.Path, sec.Offset, sec.Length); err != nil {
			return ReduceReport{}, fmt.Errorf("proc: partition %d: %w", t.ID, err)
		}
	}
	st, err := sh.Stats()
	if err != nil {
		return ReduceReport{}, fmt.Errorf("proc: profiling partition %d: %w", t.ID, err)
	}
	if t.MaxReducerInput > 0 && st.MaxGroup > int64(t.MaxReducerInput) {
		return ReduceReport{}, fatal(fmt.Errorf(
			"proc: reducer for a key in partition %d received %d values, limit %d", t.ID, st.MaxGroup, t.MaxReducerInput))
	}

	part := sh.Partition(0)
	var ranges []shuffle.KeyRange[K]
	if sp := int64(t.ReduceSplitPairs); sp > 0 && st.Pairs > sp {
		maxRanges := t.ReduceRangeConcurrency
		if maxRanges <= 0 {
			// A split target is an explicit opt-in: keep at least two ranges
			// even on a single-CPU worker so the requested split happens.
			maxRanges = max(runtime.GOMAXPROCS(0), 2)
		}
		ranges = part.PlanReduceRanges(sp, maxRanges)
	}
	nRanges := int64(len(ranges))
	if ranges == nil {
		ranges = []shuffle.KeyRange[K]{{}} // the unbounded range: the whole partition
	}
	rr, err := part.OpenRangeReader()
	if err != nil {
		return ReduceReport{}, fmt.Errorf("proc: opening partition %d: %w", t.ID, err)
	}
	defer rr.Close()
	outs := make([]reduced[K, O], len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for r := range ranges {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ro := &outs[r]
			emit := func(o O) { ro.outs = append(ro.outs, o) }
			errs[r] = rr.ForEachGroupRange(ranges[r], j.spec.BatchReduce, func(k K, vs []V) error {
				n := len(ro.outs)
				j.spec.Reduce(k, vs, emit)
				if len(ro.outs) > n {
					ro.keys = append(ro.keys, k)
					ro.ends = append(ro.ends, len(ro.outs))
				}
				return nil
			})
		}(r)
	}
	wg.Wait()
	var outputs int64
	for r := range ranges {
		if errs[r] != nil {
			return ReduceReport{}, fmt.Errorf("proc: reducing partition %d: %w", t.ID, errs[r])
		}
		outputs += int64(len(outs[r].outs))
	}
	path := outPath(ws.dir, t.ID, t.Attempt)
	size, err := writeOutputs(path, outs)
	if err != nil {
		return ReduceReport{}, err
	}
	return ReduceReport{
		Worker: ws.id, Part: t.ID, Attempt: t.Attempt, OutPath: path, OutBytes: size,
		Keys: st.Keys, Outputs: outputs, MaxGroup: st.MaxGroup,
		BytesRead: sh.DiskBytesRead(), PeakResident: st.MaxGroup,
		Ranges: nRanges,
	}, nil
}

// writeOutputs writes one reduce attempt's output run file: a group per
// key that emitted, holding its outputs, ranges in order — canonical key
// order, the image the driver's output merge adopts. It returns the
// file's size.
func writeOutputs[K comparable, O any](path string, rs []reduced[K, O]) (int64, error) {
	var enc shuffle.GroupEncoder[K, O]
	w, err := writeRun(path, func(w *runfile.Writer) error {
		for _, r := range rs {
			lo := 0
			for i, k := range r.keys {
				if err := enc.Group(w, k, r.outs[lo:r.ends[i]]); err != nil {
					return err
				}
				lo = r.ends[i]
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return w.BytesWritten(), nil
}

// sortSections orders sections by (Part, Task, Attempt, Seq): one map
// attempt's by partition, then seal order (the parallel Finish drain
// interleaves partitions, so the manifest must not record arrival
// order); one partition's reduce inputs in the value-order contract —
// map-task order, and within a task its winning attempt's seal order.
// Attempt breaks the tie when a salvaged and a re-executed attempt's
// sections coexist for one task.
func sortSections(secs []Section) {
	slices.SortFunc(secs, func(a, b Section) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(a.Task, b.Task),
			cmp.Compare(a.Attempt, b.Attempt), cmp.Compare(a.Seq, b.Seq))
	})
}
