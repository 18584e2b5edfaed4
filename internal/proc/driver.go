// The driver process: writes the input image, spawns and supervises
// worker processes, serves the task RPC, runs every assignment through
// lease tables so crashed or stalled executions are fenced and
// re-granted, salvages committed work from dead workers' manifests, and
// decodes the accepted reduce outputs into the job's output.
package proc

import (
	"fmt"
	"net"
	"net/rpc"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
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
	met            engine.Metrics
	failure        error
	finished       bool
	doneOnce       sync.Once
	done           chan struct{}
	// wake is closed and replaced (wakeLocked) on every change that can
	// make a grant, an exit or the end of shutdown possible; parked polls
	// and shutdown wait on it.
	wake chan struct{}
}

func newDriver(jobName string, opts Options, dir string, tasks []mapTaskSpec) *Driver {
	ttl := opts.leaseTTL()
	parts := make([]shuffle.PartitionStat, opts.Partitions)
	for p := range parts {
		parts[p].Worker = -1 // workers pull partitions: none is placed
	}
	return &Driver{
		opts:           opts,
		jobName:        jobName,
		dir:            dir,
		fs:             opts.fs(),
		tasks:          tasks,
		nMap:           len(tasks),
		parts:          opts.Partitions,
		hbEvery:        ttl / 3,
		stop:           make(chan struct{}),
		mapLeases:      engine.NewLeaseTable(ttl, nil),
		reduceLeases:   engine.NewLeaseTable(ttl, nil),
		mapSections:    make(map[int][]Section),
		reduceSections: make(map[int][]Section),
		reduceOut:      make(map[int]ReduceReport),
		workers:        make(map[string]*workerProc),
		lanes:          make(map[string]*obs.Ring),
		done:           make(chan struct{}),
		wake:           make(chan struct{}),
		met:            engine.Metrics{Stats: shuffle.Stats{Partitions: parts}},
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
	for i := 0; i < d.opts.Workers; i++ {
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
			d.wakeLocked()
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

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("proc: resolving worker binary: %w", err)
	}
	cmd := exec.Command(exe)
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
	d.wakeLocked() // shutdown waits for the reaps; a dead worker frees its leases
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
		if budget := workerRestartsPerWorker * d.opts.Workers; d.restarts < budget {
			d.restarts++
			respawn = true
		} else if len(d.workers) == 0 {
			d.failLocked(fmt.Errorf("proc: all workers dead and restart budget (%d) spent", budget))
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

// pollPark is the longest a poll with nothing to grant waits for a
// change before it answers TaskWait; the worker then polls again.
const pollPark = 20 * time.Millisecond

// poll hands the worker its next assignment: the first unleased map
// task, then (map phase done) the first unleased reduce partition. With
// nothing to grant it parks on the driver's broadcast and tries again on
// every change, for up to pollPark, so a grant or an exit reaches an
// idle worker as soon as it is possible.
func (d *Driver) poll(worker string) Task {
	park := time.NewTimer(pollPark)
	defer park.Stop()
	for {
		d.mu.Lock()
		t, ok := d.grantLocked(worker)
		wake := d.wake
		d.mu.Unlock()
		if ok {
			return t
		}
		select {
		case <-wake:
		case <-park.C:
			return Task{Kind: TaskWait}
		}
	}
}

// grantLocked is poll's one try: a grant or an exit, or false when
// nothing can be granted now. Called with d.mu held.
func (d *Driver) grantLocked(worker string) (Task, bool) {
	if d.finished {
		return Task{Kind: TaskExit}, true
	}
	if d.mapsDone < d.nMap {
		for id := range d.tasks {
			if _, active, done := d.mapLeases.Current(id); !active && !done {
				return d.grantMapLocked(id, worker)
			}
		}
		return Task{}, false
	}
	for _, p := range d.reduceParts {
		if _, active, done := d.reduceLeases.Current(p); !active && !done {
			return d.grantReduceLocked(p, worker)
		}
	}
	return Task{}, false
}

func (d *Driver) grantMapLocked(id int, worker string) (Task, bool) {
	attempt, ok := d.mapLeases.Grant(id, worker)
	if !ok {
		return Task{}, false
	}
	if n := d.mapLeases.Attempts(id); n > maxTaskAttempts {
		d.failLocked(fmt.Errorf("proc: map task %d failed after %d attempts", id, n-1))
		return Task{Kind: TaskExit}, true
	}
	if attempt > 0 {
		d.met.MapRetries++
	}
	d.lanes[worker].Begin(obs.OpProcMapTask, int64(id), int64(attempt))
	spec := d.tasks[id]
	return Task{
		Kind: TaskMap, ID: id, Attempt: attempt,
		Lo: spec.lo, Hi: spec.hi, InputOffset: spec.off, InputBytes: spec.bytes,
		HeartbeatEvery: d.hbEvery,
	}, true
}

func (d *Driver) grantReduceLocked(p int, worker string) (Task, bool) {
	attempt, ok := d.reduceLeases.Grant(p, worker)
	if !ok {
		return Task{}, false
	}
	if n := d.reduceLeases.Attempts(p); n > maxTaskAttempts {
		d.failLocked(fmt.Errorf("proc: reduce partition %d failed after %d attempts", p, n-1))
		return Task{Kind: TaskExit}, true
	}
	if attempt > 0 {
		d.met.ReduceRetries++
	}
	d.lanes[worker].Begin(obs.OpProcReduceTask, int64(p), int64(attempt))
	if d.opts.Hooks.OnReduceAssigned != nil {
		d.opts.Hooks.OnReduceAssigned(p, attempt, worker)
	}
	return Task{
		Kind: TaskReduce, ID: p, Attempt: attempt,
		Sections: d.reduceSections[p], HeartbeatEvery: d.hbEvery,
	}, true
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
		d.wakeLocked()
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
		d.met.Partitions[sec.Part].Pairs += sec.Pairs
	}
	d.mapsDone++
	if d.opts.Hooks.OnMapCommitted != nil {
		d.opts.Hooks.OnMapCommitted(task, attempt, worker)
	}
	if d.mapsDone == d.nMap {
		d.beginReduceLocked()
	}
	d.wakeLocked()
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
		// A worker refuses a partition whose largest group broke the q
		// limit and reports that group's size; the verdict is the plan's.
		for i := range rep.Groups {
			d.met.AddGroups(rep.Part, &rep.Groups[i])
		}
		if err := d.opts.CheckReducerInput(d.jobName, d.met.Partitions[rep.Part].MaxGroup); err != nil {
			d.failLocked(fmt.Errorf("proc: reduce partition %d: %w", rep.Part, err))
			return false
		}
		if rep.Fatal {
			d.failLocked(fmt.Errorf("proc: reduce partition %d: %s", rep.Part, rep.Err))
			return false
		}
		d.reduceLeases.Release(rep.Part, rep.Attempt)
		d.wakeLocked()
		return false
	}
	if !d.reduceLeases.Complete(rep.Part, rep.Attempt) {
		lane.End(obs.OpProcReduceTask, int64(rep.Part), 1)
		lane.Instant(obs.OpStaleReport, int64(-1-rep.Part), int64(rep.Attempt))
		return false
	}
	lane.End(obs.OpProcReduceTask, int64(rep.Part), 0)
	d.reduceOut[rep.Part] = rep
	d.met.Outputs += rep.Outputs
	d.met.DiskBytesRead += rep.BytesRead
	d.met.ReduceRanges += rep.Ranges
	for i := range rep.Groups {
		d.met.AddGroups(rep.Part, &rep.Groups[i])
	}
	// A reduce attempt runs its key ranges at once, each merge holding
	// one group decoded: its resident peak is the sum of its ranges'
	// largest groups (a whole partition's largest when it is one range).
	var held int64
	for i := range rep.Groups {
		held += rep.Groups[i].MaxGroup
	}
	d.met.PeakResidentPairs = max(d.met.PeakResidentPairs, held)
	d.reducesDone++
	if d.reducesDone == len(d.reduceParts) {
		d.finishLocked()
	}
	return true
}

func (d *Driver) finishLocked() {
	d.finished = true
	d.doneOnce.Do(func() { close(d.done) })
	d.wakeLocked()
}

// wakeLocked wakes every parked poll and a waiting shutdown. Called with
// d.mu held.
func (d *Driver) wakeLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
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
// (or parked) poll; it waits for the supervisors to reap them, killing
// stragglers after a grace period; then the listener and sweeper stop
// and every supervisor is reaped.
func (d *Driver) shutdown() {
	grace := time.NewTimer(3 * time.Second)
	defer grace.Stop()
	d.mu.Lock()
	d.finished = true
	for len(d.workers) > 0 {
		wake := d.wake
		d.mu.Unlock()
		select {
		case <-wake:
		case <-grace.C:
			d.mu.Lock()
			for _, wp := range d.workers {
				wp.cmd.Process.Kill()
			}
			d.mu.Unlock()
		}
		d.mu.Lock()
	}
	d.mu.Unlock()
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
// through the run-file codec, so each must be made of bools, numbers and
// strings, through structs and arrays (unexported fields included), or be
// a bare []byte (not for K). Run checks that before any worker is
// spawned (shuffle.CheckKey, runfile.CheckCodec) and names a type that
// breaks it.
func Run[I any, K comparable, V, O any](name string, inputs []I, opts Options) ([]O, engine.Metrics, error) {
	var met engine.Metrics
	j, err := lookup(name)
	if err != nil {
		return nil, met, err
	}
	if _, ok := j.(*jobImpl[I, K, V, O]); !ok {
		return nil, met, fmt.Errorf("proc: job %q is registered with different types than Run was called with", name)
	}
	if err := shuffle.CheckKey[K](); err != nil {
		return nil, met, fmt.Errorf("proc: job %q: %w", name, err)
	}
	for _, c := range [...]struct {
		what string
		err  error
	}{{"input", runfile.CheckCodec[I]()}, {"value", runfile.CheckCodec[V]()}, {"output", runfile.CheckCodec[O]()}} {
		if c.err != nil {
			return nil, met, fmt.Errorf("proc: job %q: %s type: %w", name, c.what, c.err)
		}
	}

	opts.Plan = opts.Resolve()
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

	var tasks []mapTaskSpec
	for _, r := range opts.MapTasks(len(inputs)) {
		tasks = append(tasks, mapTaskSpec{lo: r.Lo, hi: r.Hi})
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
	deadline, stop := opts.deadline()
	defer stop()
	select {
	case <-d.done:
	case <-deadline:
		d.fail(fmt.Errorf("proc: job %q timed out after %v", name, opts.Timeout))
		<-d.done
	}
	// The outputs are decoded while the fleet winds down; a failure
	// raised during shutdown still fails the run.
	d.mu.Lock()
	failure := d.failure
	var reps []ReduceReport
	for _, p := range d.reduceParts {
		reps = append(reps, d.reduceOut[p])
	}
	outputs := d.met.Outputs
	d.mu.Unlock()
	var outs []O
	merged := make(chan error, 1)
	if failure == nil {
		go func() {
			lane.Begin(obs.OpProcOutputMerge, int64(len(reps)), 0)
			var err error
			outs, err = mergeOutputs[K, O](opts.fs(), reps, outputs)
			lane.End(obs.OpProcOutputMerge, int64(len(outs)), obs.ErrFlag(err))
			merged <- err
		}()
	} else {
		merged <- nil
	}
	d.shutdown()
	err = <-merged

	d.mu.Lock()
	met = d.met
	failure = d.failure
	d.mu.Unlock()
	met.MapInputs = int64(len(inputs))
	met.TaskRetries = met.MapRetries + met.ReduceRetries
	if failure != nil {
		return nil, met, failure
	}
	return outs, met, err
}

// mergeOutputs reads the accepted reduce outputs — one sorted run file
// per partition, in partition order — into one slice in global canonical
// key order, a key held by two files taking the earlier file's outputs
// first. Each file's index is loaded and checked (shuffle.LoadRun), and
// its value count must equal its accepted report's, before any value is
// read or the result sized (outputs, the reports' total). The files' key
// lists are merged (engine.KeyOrder) to give each group its slot by
// prefix sum, and then every group's value section is decoded straight
// into its slot, a file per goroutine on at most GOMAXPROCS, each file
// mapped (or read whole) and released before the goroutine takes the
// next. A file that disagrees, or does not read back, is an error naming
// it.
func mergeOutputs[K comparable, O any](fs runfile.FS, reps []ReduceReport, outputs int64) ([]O, error) {
	keys := make([][]K, len(reps))
	index := make([][]runfile.IndexEntry, len(reps))
	err := eachRun(len(reps), func(r int, _ *[]byte) error {
		rep := reps[r]
		ks, idx, n, err := shuffle.LoadRun[K](fs, rep.OutPath, 0, rep.OutBytes)
		if err != nil {
			return fmt.Errorf("proc: reduce output of partition %d: %w", rep.Part, err)
		}
		if n != rep.Outputs {
			return fmt.Errorf("proc: reduce output %s holds %d outputs, its accepted report says %d", rep.OutPath, n, rep.Outputs)
		}
		keys[r], index[r] = ks, idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	slots := make([][]int64, len(reps))
	for r := range reps {
		slots[r] = make([]int64, len(index[r]))
	}
	next := make([]int, len(reps))
	var at int64
	for _, r := range engine.KeyOrder(keys) {
		slots[r][next[r]] = at
		at += index[r][next[r]].Count
		next[r]++
	}
	if at != outputs {
		return nil, fmt.Errorf("proc: reduce outputs hold %d values, their accepted reports %d", at, outputs)
	}
	outs := make([]O, outputs)
	err = eachRun(len(reps), func(r int, buf *[]byte) error {
		return decodeOutput(fs, reps[r], index[r], slots[r], outs, buf)
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// decodeOutput decodes every group of rep's output file into outs, group
// i's values at slots[i], reading the file in place (runfile.View, with
// *buf as its read buffer) and releasing it on return.
func decodeOutput[O any](fs runfile.FS, rep ReduceReport, index []runfile.IndexEntry, slots []int64, outs []O, buf *[]byte) error {
	if len(index) == 0 {
		return nil
	}
	f, err := fs.Open(rep.OutPath)
	if err != nil {
		return fmt.Errorf("proc: reduce output %s: %w", rep.OutPath, err)
	}
	defer f.Close()
	img, release, err := runfile.View(f, rep.OutBytes, buf)
	if err != nil {
		return fmt.Errorf("proc: reduce output %s: %w", rep.OutPath, err)
	}
	defer release()
	vc := runfile.CodecFor[O]()
	for i, e := range index {
		at, n, off := slots[i], e.Count, e.ValueOffset()
		if _, err := vc.DecodeSection(img[off:off+e.ValueBytes], int(n), outs[at:at:at+n]); err != nil {
			return fmt.Errorf("proc: reduce output %s: group %d: %w", rep.OutPath, i, err)
		}
	}
	return nil
}

// eachRun calls fn(i, buf) for every i in [0, n) on at most GOMAXPROCS
// goroutines, each taking the next i as it finishes one and passing fn
// its own reused buffer, and returns the error of the lowest failed i.
func eachRun(n int, fn func(i int, buf *[]byte) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i, &buf)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
