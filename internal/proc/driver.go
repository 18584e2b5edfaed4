// The driver process: writes the input image, spawns and supervises
// worker processes, serves the task RPC, runs every assignment through
// lease tables so crashed or stalled executions are fenced and
// re-granted, salvages committed work from dead workers' manifests, and
// merges the accepted reduce outputs into the job's output.
package proc

import (
	"fmt"
	"net"
	"net/rpc"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runfile"
	"repro/internal/shuffle"
)

// mapTaskSpec is one map task's input range [lo, hi) and where its
// records sit in the input image (writeInputs): a value section of
// `bytes` bytes at off.
type mapTaskSpec struct {
	lo, hi     int
	off, bytes int64
}

// workerProc is one spawned worker process under supervision.
type workerProc struct {
	id   string
	seq  int
	pid  int
	cmd  *exec.Cmd
	lane *obs.Ring
}

// Driver owns one multi-process run. It is created and driven by Run;
// the RPC methods on Coord call into it from worker connections.
type Driver struct {
	opts    Options
	jobName string
	dir     string
	socket  string
	sockDir string
	fs      runfile.FS

	tasks   []mapTaskSpec
	nMap    int
	parts   int
	hbEvery time.Duration

	listener net.Listener
	server   *rpc.Server
	wg       sync.WaitGroup
	stop     chan struct{} // closed to stop the sweeper

	mapLeases    *engine.LeaseTable
	reduceLeases *engine.LeaseTable

	mu             sync.Mutex
	mapGrant       map[int]time.Time // last grant time, for speculation age
	reduceGrant    map[int]time.Time
	mapSections    map[int][]Section // accepted (or salvaged) map output
	mapsDone       int
	reduceReady    bool
	reduceParts    []int // partitions with data, ascending
	reduceSections map[int][]Section
	reduceOut      map[int]ReduceReport
	reducesDone    int
	workers        map[string]*workerProc
	lanes          map[string]*obs.Ring // survives worker death
	spawnSeq       int
	restarts       int
	met            Metrics
	failure        error
	finished       bool
	doneOnce       sync.Once
	done           chan struct{}
}

func newDriver(jobName string, opts Options, dir string, tasks []mapTaskSpec) *Driver {
	ttl := opts.leaseTTL()
	return &Driver{
		opts:           opts,
		jobName:        jobName,
		dir:            dir,
		fs:             opts.fs(),
		tasks:          tasks,
		nMap:           len(tasks),
		parts:          opts.partitions(),
		hbEvery:        ttl / 3,
		stop:           make(chan struct{}),
		mapLeases:      engine.NewLeaseTable(ttl, nil),
		reduceLeases:   engine.NewLeaseTable(ttl, nil),
		mapGrant:       make(map[int]time.Time),
		reduceGrant:    make(map[int]time.Time),
		mapSections:    make(map[int][]Section),
		reduceSections: make(map[int][]Section),
		reduceOut:      make(map[int]ReduceReport),
		workers:        make(map[string]*workerProc),
		lanes:          make(map[string]*obs.Ring),
		done:           make(chan struct{}),
	}
}

// start opens the RPC seam, begins lease sweeping, and spawns the
// worker fleet.
func (d *Driver) start() error {
	sockDir, err := os.MkdirTemp("", "mrp")
	if err != nil {
		return fmt.Errorf("proc: creating socket dir: %w", err)
	}
	d.sockDir = sockDir
	d.socket = filepath.Join(sockDir, "c.sock")
	l, err := net.Listen("unix", d.socket)
	if err != nil {
		os.RemoveAll(sockDir)
		return fmt.Errorf("proc: listening on %s: %w", d.socket, err)
	}
	d.listener = l
	d.server = rpc.NewServer()
	if err := d.server.Register(&Coord{d: d}); err != nil {
		l.Close()
		os.RemoveAll(sockDir)
		return fmt.Errorf("proc: registering RPC service: %w", err)
	}
	d.wg.Add(1)
	go d.acceptLoop()
	d.wg.Add(1)
	go d.sweepLoop()

	if d.nMap == 0 {
		d.mu.Lock()
		d.beginReduceLocked()
		d.mu.Unlock()
	}
	for i := 0; i < d.opts.workers(); i++ {
		if err := d.spawnWorker(); err != nil {
			d.fail(err)
			return nil // the run fails through the normal path
		}
	}
	return nil
}

func (d *Driver) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		go d.server.ServeConn(conn)
	}
}

// sweepLoop fences leases whose TTL lapsed — the recovery path for
// workers that stall without dying (death itself is handled faster by
// the supervisor's ExpireOwner).
func (d *Driver) sweepLoop() {
	defer d.wg.Done()
	every := d.opts.leaseTTL() / 2
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			expM := d.mapLeases.Sweep()
			expR := d.reduceLeases.Sweep()
			if len(expM)+len(expR) == 0 {
				continue
			}
			d.mu.Lock()
			d.met.LeaseExpirations += int64(len(expM) + len(expR))
			for _, e := range expM {
				d.lanes[e.Owner].Instant(obs.OpLeaseExpire, int64(e.Task), int64(e.Attempt))
			}
			for _, e := range expR {
				d.lanes[e.Owner].Instant(obs.OpLeaseExpire, int64(-1-e.Task), int64(e.Attempt))
			}
			d.mu.Unlock()
		}
	}
}

// spawnWorker starts one worker process and its supervisor.
func (d *Driver) spawnWorker() error {
	d.mu.Lock()
	seq := d.spawnSeq
	d.spawnSeq++
	d.mu.Unlock()
	id := fmt.Sprintf("w%d", seq)

	argv := d.opts.WorkerCommand
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("proc: resolving worker binary: %w", err)
		}
		argv = []string{exe}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(),
		envWorker+"=1",
		envSocket+"="+d.socket,
		envDir+"="+d.dir,
		envJob+"="+d.jobName,
		envID+"="+id,
	)
	if d.opts.WorkerTraceDir != "" {
		cmd.Env = append(cmd.Env, envTraceDir+"="+d.opts.WorkerTraceDir)
	}
	cmd.Env = append(cmd.Env, d.opts.WorkerEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("proc: spawning worker %s: %w", id, err)
	}
	wp := &workerProc{id: id, seq: seq, pid: cmd.Process.Pid, cmd: cmd,
		lane: d.opts.Recorder.Lane(obs.LaneProc, seq)}
	wp.lane.Begin(obs.OpWorkerLife, int64(wp.pid), 0)
	d.mu.Lock()
	d.workers[id] = wp
	d.lanes[id] = wp.lane
	d.mu.Unlock()
	if d.opts.Hooks.OnSpawn != nil {
		d.opts.Hooks.OnSpawn(id, wp.pid)
	}
	d.wg.Add(1)
	go d.supervise(wp)
	return nil
}

// supervise reaps one worker process. An unexpected exit fences the
// worker's leases immediately, salvages its committed-but-unreported
// map tasks from its manifest, and spawns a replacement while the
// restart budget lasts.
func (d *Driver) supervise(wp *workerProc) {
	defer d.wg.Done()
	waitErr := wp.cmd.Wait()

	d.mu.Lock()
	delete(d.workers, wp.id)
	if d.finished {
		wp.lane.End(obs.OpWorkerLife, int64(wp.pid), 0)
		d.mu.Unlock()
		if d.opts.Hooks.OnWorkerExit != nil {
			d.opts.Hooks.OnWorkerExit(wp.id, wp.pid, waitErr)
		}
		return
	}
	d.met.WorkerDeaths++
	expired := append(d.mapLeases.ExpireOwner(wp.id), d.reduceLeases.ExpireOwner(wp.id)...)
	wp.lane.Instant(obs.OpWorkerDeath, int64(wp.pid), int64(len(expired)))
	wp.lane.End(obs.OpWorkerLife, int64(wp.pid), 1)
	d.salvageLocked(wp)
	respawn := false
	if !d.finished { // salvage may have completed the job
		if d.restarts < d.opts.maxWorkerRestarts() {
			d.restarts++
			respawn = true
		} else if len(d.workers) == 0 {
			d.failLocked(fmt.Errorf("proc: all workers dead and restart budget (%d) spent", d.opts.maxWorkerRestarts()))
		}
	}
	d.mu.Unlock()

	if d.opts.Hooks.OnWorkerExit != nil {
		d.opts.Hooks.OnWorkerExit(wp.id, wp.pid, waitErr)
	}
	if respawn {
		if err := d.spawnWorker(); err != nil {
			d.fail(err)
		}
	}
}

// salvageLocked adopts a dead worker's completed-but-unreported map
// tasks: replay its manifest, validate every committed section through
// the crash-reopen gate, and complete tasks whose output fully
// survived. Anything torn, missing, or already done is skipped — those
// tasks simply re-run. Called with d.mu held.
func (d *Driver) salvageLocked(wp *workerProc) {
	entries, err := readManifest(d.fs, ManifestPath(d.dir, wp.id))
	if err != nil {
		// An unreadable manifest only costs re-execution, never
		// correctness — but say so, it is a disk problem worth seeing.
		fmt.Fprintf(os.Stderr, "proc: salvage of %s skipped: %v\n", wp.id, err)
		return
	}
	for _, e := range entries {
		if _, _, done := d.mapLeases.Current(e.Task); done {
			continue
		}
		ok := true
		for _, sec := range e.Sections {
			if verr := validateSection(d.fs, sec); verr != nil {
				fmt.Fprintf(os.Stderr, "proc: not salvaging task %d from %s: %v\n", e.Task, wp.id, verr)
				ok = false
				break
			}
		}
		if !ok || !d.mapLeases.CompleteSalvaged(e.Task) {
			continue
		}
		d.met.SalvagedTasks++
		wp.lane.Instant(obs.OpSalvage, int64(e.Task), int64(e.Attempt))
		d.acceptMapLocked(e.Task, e.Attempt, wp.id, e.Sections, e.PairsEmitted, e.PeakResident)
	}
}

// poll hands the worker its next assignment: the first unleased map
// task, then (map phase done) the first unleased reduce partition, with
// speculative duplicates of the longest-unrenewed in-flight task when
// enabled and nothing fresh is assignable.
func (d *Driver) poll(worker string) Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finished {
		return Task{Kind: TaskExit}
	}
	if d.mapsDone < d.nMap {
		for id := range d.tasks {
			_, active, done := d.mapLeases.Current(id)
			if active || done {
				continue
			}
			return d.grantMapLocked(id, worker)
		}
		if id, ok := d.speculationTarget(d.mapLeases, d.mapGrant); ok {
			d.met.Speculative++
			return d.grantMapLocked(id, worker)
		}
		return Task{Kind: TaskWait, PollAfter: 20 * time.Millisecond}
	}
	for _, p := range d.reduceParts {
		_, active, done := d.reduceLeases.Current(p)
		if active || done {
			continue
		}
		return d.grantReduceLocked(p, worker)
	}
	if p, ok := d.speculationTarget(d.reduceLeases, d.reduceGrant); ok {
		d.met.Speculative++
		return d.grantReduceLocked(p, worker)
	}
	return Task{Kind: TaskWait, PollAfter: 20 * time.Millisecond}
}

// speculationTarget picks the longest-unrenewed in-flight task once its
// current grant is older than SpeculativeAfter.
func (d *Driver) speculationTarget(lt *engine.LeaseTable, grants map[int]time.Time) (int, bool) {
	after := d.opts.SpeculativeAfter
	if after <= 0 {
		return 0, false
	}
	id, ok := lt.Oldest()
	if !ok {
		return 0, false
	}
	if g, seen := grants[id]; !seen || time.Since(g) < after {
		return 0, false
	}
	return id, true
}

func (d *Driver) grantMapLocked(id int, worker string) Task {
	attempt, ok := d.mapLeases.Grant(id, worker)
	if !ok {
		return Task{Kind: TaskWait, PollAfter: 20 * time.Millisecond}
	}
	if n := d.mapLeases.Attempts(id); n > d.opts.maxTaskAttempts() {
		d.failLocked(fmt.Errorf("proc: map task %d failed after %d attempts", id, n-1))
		return Task{Kind: TaskExit}
	}
	if attempt > 0 {
		d.met.MapRetries++
	}
	d.mapGrant[id] = time.Now()
	d.lanes[worker].Begin(obs.OpProcMapTask, int64(id), int64(attempt))
	spec := d.tasks[id]
	return Task{
		Kind: TaskMap, ID: id, Attempt: attempt,
		Lo: spec.lo, Hi: spec.hi, InputOffset: spec.off, InputBytes: spec.bytes,
		Partitions:     d.parts,
		MemoryBudget:   d.opts.MemoryBudget,
		HeartbeatEvery: d.hbEvery,
	}
}

func (d *Driver) grantReduceLocked(p int, worker string) Task {
	attempt, ok := d.reduceLeases.Grant(p, worker)
	if !ok {
		return Task{Kind: TaskWait, PollAfter: 20 * time.Millisecond}
	}
	if n := d.reduceLeases.Attempts(p); n > d.opts.maxTaskAttempts() {
		d.failLocked(fmt.Errorf("proc: reduce partition %d failed after %d attempts", p, n-1))
		return Task{Kind: TaskExit}
	}
	if attempt > 0 {
		d.met.ReduceRetries++
	}
	d.reduceGrant[p] = time.Now()
	d.lanes[worker].Begin(obs.OpProcReduceTask, int64(p), int64(attempt))
	if d.opts.Hooks.OnReduceAssigned != nil {
		d.opts.Hooks.OnReduceAssigned(p, attempt, worker)
	}
	return Task{
		Kind: TaskReduce, ID: p, Attempt: attempt,
		Sections:               d.reduceSections[p],
		MaxReducerInput:        d.opts.MaxReducerInput,
		ReduceSplitPairs:       d.opts.ReduceSplitPairs,
		ReduceRangeConcurrency: d.opts.ReduceRangeConcurrency,
		HeartbeatEvery:         d.hbEvery,
	}
}

// heartbeat renews the lease; false tells the worker it is fenced.
func (d *Driver) heartbeat(args HeartbeatArgs) bool {
	switch args.Kind {
	case TaskMap:
		return d.mapLeases.Renew(args.ID, args.Attempt, args.Worker)
	case TaskReduce:
		return d.reduceLeases.Renew(args.ID, args.Attempt, args.Worker)
	}
	return false
}

// mapDone accepts or refuses a map attempt's report. Only the lease
// table's verdict matters: a fenced attempt's sections are never
// adopted, no matter how complete they are on disk.
func (d *Driver) mapDone(rep MapReport) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	lane := d.lanes[rep.Worker]
	if rep.Err != "" {
		lane.End(obs.OpProcMapTask, int64(rep.Task), 1)
		if rep.Fatal {
			d.failLocked(fmt.Errorf("proc: map task %d: %s", rep.Task, rep.Err))
			return false
		}
		d.mapLeases.Release(rep.Task, rep.Attempt)
		return false
	}
	if !d.mapLeases.Complete(rep.Task, rep.Attempt) {
		lane.End(obs.OpProcMapTask, int64(rep.Task), 1)
		lane.Instant(obs.OpStaleReport, int64(rep.Task), int64(rep.Attempt))
		return false
	}
	lane.End(obs.OpProcMapTask, int64(rep.Task), 0)
	d.acceptMapLocked(rep.Task, rep.Attempt, rep.Worker, rep.Sections, rep.PairsEmitted, rep.PeakResident)
	return true
}

// acceptMapLocked books one completed map task (reported or salvaged):
// its sections become reduce input and the spill accounting — the bytes
// that actually crossed the process boundary. Called with d.mu held,
// after the lease table accepted the completion.
func (d *Driver) acceptMapLocked(task, attempt int, worker string, secs []Section, pairsEmitted, peakResident int64) {
	d.mapSections[task] = secs
	d.met.PairsEmitted += pairsEmitted
	if peakResident > d.met.PeakResidentPairs {
		d.met.PeakResidentPairs = peakResident
	}
	for _, sec := range secs {
		d.met.BytesSpilled += sec.DataBytes
		d.met.IndexBytesSpilled += sec.IndexBytes
		d.met.PairsShuffled += sec.Pairs
	}
	d.mapsDone++
	if d.opts.Hooks.OnMapCommitted != nil {
		d.opts.Hooks.OnMapCommitted(task, attempt, worker)
	}
	if d.mapsDone == d.nMap {
		d.beginReduceLocked()
	}
}

// beginReduceLocked freezes the map output into per-partition section
// lists (map-task order) and opens the reduce phase. A job whose map
// output is empty finishes here.
func (d *Driver) beginReduceLocked() {
	if d.reduceReady {
		return
	}
	d.reduceReady = true
	for task := 0; task < d.nMap; task++ {
		for _, sec := range d.mapSections[task] {
			d.reduceSections[sec.Part] = append(d.reduceSections[sec.Part], sec)
		}
	}
	for p := 0; p < d.parts; p++ {
		if len(d.reduceSections[p]) > 0 {
			sortSections(d.reduceSections[p])
			d.reduceParts = append(d.reduceParts, p)
		}
	}
	if len(d.reduceParts) == 0 {
		d.finishLocked()
	}
}

// reduceDone accepts or refuses a reduce attempt's report.
func (d *Driver) reduceDone(rep ReduceReport) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	lane := d.lanes[rep.Worker]
	if rep.Err != "" {
		lane.End(obs.OpProcReduceTask, int64(rep.Part), 1)
		if rep.Fatal {
			d.failLocked(fmt.Errorf("proc: reduce partition %d: %s", rep.Part, rep.Err))
			return false
		}
		d.reduceLeases.Release(rep.Part, rep.Attempt)
		return false
	}
	if !d.reduceLeases.Complete(rep.Part, rep.Attempt) {
		lane.End(obs.OpProcReduceTask, int64(rep.Part), 1)
		lane.Instant(obs.OpStaleReport, int64(-1-rep.Part), int64(rep.Attempt))
		return false
	}
	lane.End(obs.OpProcReduceTask, int64(rep.Part), 0)
	d.reduceOut[rep.Part] = rep
	d.met.Reducers += rep.Keys
	d.met.Outputs += rep.Outputs
	d.met.MaxReducerInput = max(d.met.MaxReducerInput, rep.MaxGroup)
	d.met.DiskBytesRead += rep.BytesRead
	d.met.ReduceRanges += rep.Ranges
	if rep.PeakResident > d.met.PeakResidentPairs {
		d.met.PeakResidentPairs = rep.PeakResident
	}
	d.reducesDone++
	if d.reducesDone == len(d.reduceParts) {
		d.finishLocked()
	}
	return true
}

func (d *Driver) finishLocked() {
	d.finished = true
	d.doneOnce.Do(func() { close(d.done) })
}

func (d *Driver) failLocked(err error) {
	if d.failure == nil {
		d.failure = err
	}
	d.finishLocked()
}

func (d *Driver) fail(err error) {
	d.mu.Lock()
	d.failLocked(err)
	d.mu.Unlock()
}

// shutdown winds the run down: workers learn TaskExit from their next
// poll; stragglers are killed after a grace period; the listener and
// sweeper stop; every supervisor is reaped.
func (d *Driver) shutdown() {
	d.mu.Lock()
	d.finished = true
	d.mu.Unlock()

	deadline := time.Now().Add(3 * time.Second)
	for {
		d.mu.Lock()
		n := len(d.workers)
		var rest []*workerProc
		if time.Now().After(deadline) {
			for _, wp := range d.workers {
				rest = append(rest, wp)
			}
		}
		d.mu.Unlock()
		if n == 0 {
			break
		}
		if rest != nil {
			for _, wp := range rest {
				wp.cmd.Process.Kill()
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(d.stop)
	d.listener.Close()
	d.wg.Wait()
	os.RemoveAll(d.sockDir)
}

// Run executes the named registered job over inputs across worker
// processes and returns the outputs in global canonical key order —
// the same deterministic, attempt- and schedule-invariant order the
// in-process engine produces — plus the run's communication and
// fault-tolerance metrics. I, K, V and O all cross the process boundary
// through the run-file codec: a type that cannot make the trip
// faithfully is an error before any worker is spawned.
func Run[I any, K comparable, V, O any](name string, inputs []I, opts Options) ([]O, Metrics, error) {
	var met Metrics
	j, err := lookup(name)
	if err != nil {
		return nil, met, err
	}
	if _, ok := j.(*jobImpl[I, K, V, O]); !ok {
		return nil, met, fmt.Errorf("proc: job %q is registered with different types than Run was called with", name)
	}
	if err := runfile.CanRoundTripIdentity[K](); err != nil {
		return nil, met, fmt.Errorf("proc: key type unusable across processes: %w", err)
	}
	if err := runfile.CanRoundTripFidelity[I](); err != nil {
		return nil, met, fmt.Errorf("proc: input type unusable across processes: %w", err)
	}
	if err := runfile.CanRoundTripFidelity[V](); err != nil {
		return nil, met, fmt.Errorf("proc: value type unusable across processes: %w", err)
	}
	if err := runfile.CanRoundTripFidelity[O](); err != nil {
		return nil, met, fmt.Errorf("proc: output type unusable across processes: %w", err)
	}

	dir := opts.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "mrproc")
		if err != nil {
			return nil, met, fmt.Errorf("proc: creating scratch dir: %w", err)
		}
		if !opts.KeepDir {
			defer os.RemoveAll(dir)
		}
	}

	chunk := opts.MapChunk
	if chunk <= 0 {
		chunk = max((len(inputs)+4*opts.workers()-1)/(4*opts.workers()), 1)
	}
	var tasks []mapTaskSpec
	for lo := 0; lo < len(inputs); lo += chunk {
		tasks = append(tasks, mapTaskSpec{lo: lo, hi: min(lo+chunk, len(inputs))})
	}
	lane := opts.Recorder.Lane(obs.LaneRound, 0)
	lane.Begin(obs.OpProcInputs, int64(len(inputs)), int64(len(tasks)))
	size, err := writeInputs(filepath.Join(dir, inputsFile), inputs, tasks)
	lane.End(obs.OpProcInputs, size, obs.ErrFlag(err))
	if err != nil {
		return nil, met, err
	}

	d := newDriver(name, opts, dir, tasks)
	if err := d.start(); err != nil {
		return nil, met, err
	}
	select {
	case <-d.done:
	case <-time.After(opts.timeout()):
		d.fail(fmt.Errorf("proc: job %q timed out after %v", name, opts.timeout()))
		<-d.done
	}
	d.shutdown()

	d.mu.Lock()
	met = d.met
	failure := d.failure
	var reps []ReduceReport
	for _, p := range d.reduceParts {
		reps = append(reps, d.reduceOut[p])
	}
	d.mu.Unlock()

	met.MapInputs = int64(len(inputs))
	met.MapTasks = int64(len(tasks))
	met.ReduceTasks = int64(len(reps))
	if failure != nil {
		return nil, met, failure
	}
	lane.Begin(obs.OpProcOutputMerge, int64(len(reps)), 0)
	outs, err := mergeOutputs[K, O](opts.fs(), reps, met.Outputs)
	lane.End(obs.OpProcOutputMerge, int64(len(outs)), obs.ErrFlag(err))
	return outs, met, err
}

// mergeOutputs adopts the accepted reduce outputs — one sorted run file
// per partition — into a one-partition shuffle whose k-way merge yields
// them in global canonical key order. Each file's value count must
// equal its accepted report's before any value is read or the result
// sized (outputs, the reports' total); a file that disagrees, or does
// not read back, is an error naming it.
func mergeOutputs[K comparable, O any](fs runfile.FS, reps []ReduceReport, outputs int64) ([]O, error) {
	sh := shuffle.New[K, O](shuffle.Options{Partitions: 1, FS: fs})
	defer sh.Close()
	part := sh.Partition(0)
	for _, rep := range reps {
		before := part.Pairs()
		if err := sh.AdoptRun(0, rep.OutPath, 0, rep.OutBytes); err != nil {
			return nil, fmt.Errorf("proc: reduce output of partition %d: %w", rep.Part, err)
		}
		if got := part.Pairs() - before; got != rep.Outputs {
			return nil, fmt.Errorf("proc: reduce output %s holds %d outputs, its accepted report says %d", rep.OutPath, got, rep.Outputs)
		}
	}
	outs := make([]O, 0, outputs)
	err := part.ForEachGroupBatch(func(_ K, vs []O) error {
		outs = append(outs, vs...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("proc: merging reduce outputs: %w", err)
	}
	return outs, nil
}
