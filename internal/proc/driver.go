// The driver process: writes the input image, spawns and supervises
// worker processes, serves the task RPC, leases every task so crashed
// or stalled executions are fenced and re-granted, salvages committed
// work from dead workers' manifests, and decodes the accepted reduce
// outputs into the job's output.
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

// lease is the driver's record of one map task or reduce partition.
// Every grant bumps the attempt, which fences the execution: a renewal
// or report from any other attempt is refused.
type lease struct {
	grants  int // the current attempt is grants-1
	owner   string
	expires time.Time
	active  bool // owner holds it: not yet reported, expired or dead
	done    bool // an attempt was accepted or salvaged
}

// current reports whether attempt is the lease's latest grant.
func (l *lease) current(attempt int) bool { return l.grants > 0 && attempt == l.grants-1 }

// workerProc is one spawned worker process under supervision.
type workerProc struct {
	id   string
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

	tasks []mapTaskSpec
	ttl   time.Duration

	listener net.Listener
	server   *rpc.Server
	wg       sync.WaitGroup
	stop     chan struct{} // closed to stop the sweeper

	mu             sync.Mutex
	now            func() time.Time  // every lease decision's clock
	mapLeases      []lease           // one per map task
	reduceLeases   []lease           // one per partition
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
		ttl:            opts.leaseTTL(),
		stop:           make(chan struct{}),
		now:            time.Now,
		mapLeases:      make([]lease, len(tasks)),
		reduceLeases:   make([]lease, opts.Partitions),
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

	if len(d.tasks) == 0 {
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

// sweepLoop runs sweepLocked on a ticker.
func (d *Driver) sweepLoop() {
	defer d.wg.Done()
	tick := time.NewTicker(max(d.ttl/2, 5*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.mu.Lock()
			d.sweepLocked()
			d.mu.Unlock()
		}
	}
}

// sweepLocked fences every lease whose TTL lapsed: the recovery path
// for workers that stall without dying. Called with d.mu held.
func (d *Driver) sweepLocked() {
	now, fenced := d.now(), false
	d.eachActiveLocked(func(id int, l *lease) {
		if now.After(l.expires) {
			l.active, fenced = false, true
			d.met.LeaseExpirations++
			d.lanes[l.owner].Instant(obs.OpLeaseExpire, int64(id), int64(l.grants-1))
		}
	})
	if fenced {
		d.wakeLocked()
	}
}

// eachActiveLocked calls fn on every held lease with its trace id: the
// map task's, or -1-p for partition p. Called with d.mu held.
func (d *Driver) eachActiveLocked(fn func(id int, l *lease)) {
	for i := range d.mapLeases {
		if d.mapLeases[i].active {
			fn(i, &d.mapLeases[i])
		}
	}
	for p := range d.reduceLeases {
		if d.reduceLeases[p].active {
			fn(-1-p, &d.reduceLeases[p])
		}
	}
}

// leaseOf is the lease of a map task or a reduce partition, or nil for
// an id the job has not: ids arrive off the socket.
func (d *Driver) leaseOf(kind TaskKind, id int) *lease {
	ls := d.mapLeases
	if kind == TaskReduce {
		ls = d.reduceLeases
	}
	if kind != TaskMap && kind != TaskReduce || id < 0 || id >= len(ls) {
		return nil
	}
	return &ls[id]
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
	wp := &workerProc{id: id, pid: cmd.Process.Pid, cmd: cmd,
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

// supervise reaps one worker process, books its exit (exitLocked) and
// spawns the replacement that asks for.
func (d *Driver) supervise(wp *workerProc) {
	defer d.wg.Done()
	waitErr := wp.cmd.Wait()
	d.mu.Lock()
	respawn := d.exitLocked(wp)
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

// exitLocked books a worker's exit. An unexpected one fences its leases
// at once, salvages its committed map tasks (salvageLocked) and asks for
// a replacement (true) while the restart budget lasts. Called with d.mu held.
func (d *Driver) exitLocked(wp *workerProc) (respawn bool) {
	delete(d.workers, wp.id)
	d.wakeLocked() // shutdown waits for the reaps; a dead worker frees its leases
	if d.finished {
		wp.lane.End(obs.OpWorkerLife, int64(wp.pid), 0)
		return false
	}
	d.met.WorkerDeaths++
	fenced := 0
	d.eachActiveLocked(func(_ int, l *lease) {
		if l.owner == wp.id {
			l.active = false
			fenced++
		}
	})
	wp.lane.Instant(obs.OpWorkerDeath, int64(wp.pid), int64(fenced))
	wp.lane.End(obs.OpWorkerLife, int64(wp.pid), 1)
	d.salvageLocked(wp)
	if d.finished { // salvage may have completed the job
		return false
	}
	if budget := workerRestartsPerWorker * d.opts.Workers; d.restarts < budget {
		d.restarts++
		return true
	} else if len(d.workers) == 0 {
		d.failLocked(fmt.Errorf("proc: all workers dead and restart budget (%d) spent", budget))
	}
	return false
}

// salvageLocked adopts a dead worker's completed-but-unreported map
// tasks: replay its manifest, validate every committed section through
// the crash-reopen gate, and complete tasks whose output fully
// survived. Anything torn, missing, mistagged or already done is
// skipped — those tasks simply re-run. Called with d.mu held.
func (d *Driver) salvageLocked(wp *workerProc) {
	entries, err := readManifest(d.fs, ManifestPath(d.dir, wp.id))
	if err != nil {
		// An unreadable manifest only costs re-execution, never
		// correctness — but say so, it is a disk problem worth seeing.
		fmt.Fprintf(os.Stderr, "proc: salvage of %s skipped: %v\n", wp.id, err)
		return
	}
	for _, e := range entries {
		l := d.leaseOf(TaskMap, e.Task)
		if l != nil && l.done {
			continue
		}
		err := d.checkSections(e.Task, e.Attempt, e.Sections)
		if l == nil || e.Attempt < 0 || e.Attempt >= l.grants {
			err = fmt.Errorf("proc: map task %d attempt %d was never granted", e.Task, e.Attempt)
		}
		for i := 0; err == nil && i < len(e.Sections); i++ {
			err = validateSection(d.fs, e.Sections[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "proc: not salvaging task %d from %s: %v\n", e.Task, wp.id, err)
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
	if d.mapsDone < len(d.tasks) {
		for id, l := range d.mapLeases {
			if !l.active && !l.done {
				return d.grantMapLocked(id, worker)
			}
		}
		return Task{}, false
	}
	for _, p := range d.reduceParts {
		if l := d.reduceLeases[p]; !l.active && !l.done {
			return d.grantReduceLocked(p, worker)
		}
	}
	return Task{}, false
}

// leaseLocked grants l to worker under its next attempt, or fails the
// job (false) when its task has had maxTaskAttempts grants already.
func (d *Driver) leaseLocked(l *lease, worker, what string, id int) (int, bool) {
	if l.grants == maxTaskAttempts {
		d.failLocked(fmt.Errorf("proc: %s %d failed after %d attempts", what, id, l.grants))
		return 0, false
	}
	l.grants++
	l.owner, l.expires, l.active = worker, d.now().Add(d.ttl), true
	return l.grants - 1, true
}

func (d *Driver) grantMapLocked(id int, worker string) (Task, bool) {
	attempt, ok := d.leaseLocked(&d.mapLeases[id], worker, "map task", id)
	if !ok {
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
		HeartbeatEvery: d.ttl / 3,
	}, true
}

func (d *Driver) grantReduceLocked(p int, worker string) (Task, bool) {
	attempt, ok := d.leaseLocked(&d.reduceLeases[p], worker, "reduce partition", p)
	if !ok {
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
		Sections: d.reduceSections[p], HeartbeatEvery: d.ttl / 3,
	}, true
}

// heartbeat renews the lease; false tells the worker it is fenced.
func (d *Driver) heartbeat(args HeartbeatArgs) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.leaseOf(args.Kind, args.ID)
	if l == nil || !l.active || l.owner != args.Worker || !l.current(args.Attempt) {
		return false
	}
	l.expires = d.now().Add(d.ttl)
	return true
}

// checkSections refuses sections tagged with another task or attempt
// than the one that commits them, or with a partition the job has not:
// they arrive off the socket and off disk.
func (d *Driver) checkSections(task, attempt int, secs []Section) error {
	for _, s := range secs {
		if s.Task != task || s.Attempt != attempt || s.Part < 0 || s.Part >= len(d.reduceLeases) {
			return fmt.Errorf("proc: map task %d attempt %d committed a section tagged task %d attempt %d partition %d of %d",
				task, attempt, s.Task, s.Attempt, s.Part, len(d.reduceLeases))
		}
	}
	return nil
}

// mapDone accepts or refuses a map attempt's report. Only its lease's
// verdict matters: a fenced or mistagged attempt's sections are never
// adopted, no matter how complete they are on disk.
func (d *Driver) mapDone(rep MapReport) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.leaseOf(TaskMap, rep.Task)
	if l == nil {
		return false
	}
	lane := d.lanes[rep.Worker]
	if err := d.checkSections(rep.Task, rep.Attempt, rep.Sections); rep.Err == "" && err != nil {
		fmt.Fprintf(os.Stderr, "proc: refusing the report of %s: %v\n", rep.Worker, err)
		rep.Err = err.Error()
	}
	if rep.Err != "" {
		lane.End(obs.OpProcMapTask, int64(rep.Task), 1)
		if rep.Fatal {
			d.failLocked(fmt.Errorf("proc: map task %d: %s", rep.Task, rep.Err))
			return false
		}
		d.releaseLocked(l, rep.Attempt)
		return false
	}
	if l.done || !l.current(rep.Attempt) {
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
// that actually crossed the process boundary — and marks its lease done.
// Called with d.mu held.
func (d *Driver) acceptMapLocked(task, attempt int, worker string, secs []Section, pairsEmitted, peakResident int64) {
	d.mapLeases[task].done, d.mapLeases[task].active = true, false
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
	if d.mapsDone == len(d.tasks) {
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
	for task := range d.tasks {
		for _, sec := range d.mapSections[task] {
			d.reduceSections[sec.Part] = append(d.reduceSections[sec.Part], sec)
		}
	}
	for p := range d.reduceLeases {
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
	l := d.leaseOf(TaskReduce, rep.Part)
	if l == nil {
		return false
	}
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
		d.releaseLocked(l, rep.Attempt)
		return false
	}
	if l.done || !l.current(rep.Attempt) {
		lane.End(obs.OpProcReduceTask, int64(rep.Part), 1)
		lane.Instant(obs.OpStaleReport, int64(-1-rep.Part), int64(rep.Attempt))
		return false
	}
	l.done, l.active = true, false
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

// releaseLocked frees a lease whose current attempt reported a failure,
// so the task is granted again without waiting out the TTL.
func (d *Driver) releaseLocked(l *lease, attempt int) {
	if l.active && l.current(attempt) {
		l.active = false
		d.wakeLocked()
	}
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
