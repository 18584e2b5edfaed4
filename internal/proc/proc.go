// Package proc is the multi-process execution mode: a driver process
// that forks worker processes and runs one map-reduce round across
// them, with the per-partition spool files as the actual exchange
// medium between map and reduce — "communication cost" becomes bytes
// written across a process boundary, not a memcpy.
//
// The control plane is a unix-socket RPC seam (net/rpc): workers poll
// the driver for tasks, heartbeat their leases while executing, and
// report completions. The driver runs every assignment through an
// engine.LeaseTable, so each execution is fenced by its (task, attempt)
// pair: a worker that stalls past its lease TTL, or dies outright, is
// superseded by a re-grant with a bumped attempt, and any late report
// from the fenced attempt is refused.
//
// The data plane is crash-tolerant by construction. A map worker
// appends each task's output as sorted run-file sections of its
// per-partition spool files, then commits the task by appending one
// record to its manifest before reporting. Bytes written to a file
// survive kill -9 (they are in the kernel regardless of process death),
// so on a worker's death the driver salvages tasks that completed but
// never reported: it replays the manifest and adopts sections that
// validate — runfile.LoadIndex falls back from a torn footer to a
// sequential scan, and the recovered group/pair counts must match the
// manifest's. Anything torn or unaccounted is discarded and the task
// re-executed; map functions are required to be deterministic, so the
// job's output is byte-identical either way.
//
// Both sides of that exchange are the in-process engine's task bodies
// over the in-process shuffle (internal/shuffle), not a second
// implementation of them: a map worker runs engine.RunMapAttempt into
// a shuffle task writer whose seal sink points the shuffle's run
// encoder at the spool, and a reduce worker adopts its partition's committed sections
// as borrowed disk runs and reduces them with engine.PlanReduce and
// engine.RunReduceAttempt — the same index-planned ranges, merge,
// shared mappings and section decode an in-process round uses. Where
// the executors differ on purpose is named once, in worker.go.
//
// The data plane is run files end to end, on both of its other edges
// too. The driver writes the job's records once as an input image, one
// run-file group per map task, and a map worker reads only its own
// group's value section (one positioned read, one decoding walk). A
// reduce worker writes its partition's outputs as a run file through
// the shuffle's group encoder; the driver adopts every accepted output
// into a one-partition shuffle, whose k-way merge yields the job's
// output in global canonical key order. The RPC control plane carries
// file coordinates, never a typed record, key, value or output.
//
// Jobs must be registered (Register) under a name in both the driver
// and the worker binary — normally the same binary, with the role
// chosen by environment (MaybeWorker) or flags (cmd/mrworker) — so
// both sides execute the same code.
package proc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/runfile"
)

// Options configures a multi-process run: the engine.Plan both
// executors honour — resolved once by Run and handed to every worker in
// its registration reply — plus this mode's process lifecycle. Workers
// counts worker processes; each map worker runs its own streaming
// shuffle under MemoryBudget, and each reduce worker enforces
// MaxReducerInput and splits its partition's merge under
// ReduceSplitPairs, exactly as the in-process engine does. The plan's
// Recorder stays in the driver: it receives per-worker-process lanes
// with spawn-to-exit and task-assignment spans, plus lease-expiry,
// worker-death, salvage and stale-report instants.
type Options struct {
	engine.Plan

	// Dir is the job's scratch directory (inputs, spools, outputs,
	// manifests, socket). Empty creates a temp dir, removed when the
	// run finishes.
	Dir string
	// KeepDir preserves the scratch directory for post-mortems.
	KeepDir bool
	// WorkerEnv is appended to each worker's environment (test knobs).
	WorkerEnv []string
	// LeaseTTL is how long a task lease survives without a heartbeat
	// before the driver fences it and re-grants the task. Zero means 2s.
	LeaseTTL time.Duration
	// Timeout bounds the whole run. Zero means no deadline, as in
	// process: lease expiry already fences a dead or silent worker, and
	// maxTaskAttempts bounds a task's grants.
	Timeout time.Duration
	// FS is the driver-side filesystem for salvage validation and the
	// output merge. Nil means runfile.OSFS. Worker processes always
	// use the real filesystem — faults are injected there by killing
	// them.
	FS runfile.FS
	// WorkerTraceDir, when set, makes every worker process record its
	// own task-execution events (including its shuffle's seal and block
	// lanes) and write a Perfetto trace named trace-<worker>.json into
	// this directory when it exits cleanly.
	WorkerTraceDir string
	// Hooks are test seams; see Hooks.
	Hooks Hooks
}

// Hooks expose driver lifecycle moments to tests (crash injection
// points). All are optional and called synchronously from the driver's
// RPC or supervision paths — keep them fast.
type Hooks struct {
	// OnSpawn fires after a worker process starts.
	OnSpawn func(worker string, pid int)
	// OnMapCommitted fires when a map task's report is accepted.
	OnMapCommitted func(task, attempt int, worker string)
	// OnReduceAssigned fires when a reduce task is granted.
	OnReduceAssigned func(part, attempt int, worker string)
	// OnWorkerExit fires when a worker process exits (expected or not).
	OnWorkerExit func(worker string, pid int, err error)
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return 2 * time.Second
}

// maxTaskAttempts caps the grants any one task receives before the job
// fails; replacement workers spawned after unexpected deaths are capped
// at workerRestartsPerWorker×Workers.
const (
	maxTaskAttempts         = 5
	workerRestartsPerWorker = 2
)

// deadline arms the whole-run timer: a nil channel, which never fires,
// when Timeout is zero. The caller stops the timer.
func (o Options) deadline() (<-chan time.Time, func() bool) {
	if o.Timeout <= 0 {
		return nil, func() bool { return false }
	}
	t := time.NewTimer(o.Timeout)
	return t.C, t.Stop
}

func (o Options) fs() runfile.FS {
	if o.FS != nil {
		return o.FS
	}
	return runfile.OSFS
}

// runnable is the untyped face of a registered job: what a worker
// process needs to execute tasks of any key/value types.
type runnable interface {
	runMapTask(ws *workerState, t Task) (MapReport, error)
	runReduceTask(ws *workerState, t Task) (ReduceReport, error)
}

var registry = struct {
	mu   sync.Mutex
	jobs map[string]runnable
}{jobs: make(map[string]runnable)}

// Register makes the round runnable by name (its Name) in this process.
// Both the driver and its workers must register the same round
// (normally the same code path runs in both, since workers are the same
// binary). Its Config is not read: the plan arrives through Options.
// Registering a name twice replaces the previous round.
func Register[I any, K comparable, V, O any](r engine.Round[I, K, V, O]) {
	if r.Name == "" {
		panic("proc: Register with empty job name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.jobs[r.Name] = &jobImpl[I, K, V, O]{r: r}
}

// lookup returns the registered job by name.
func lookup(name string) (runnable, error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	j, ok := registry.jobs[name]
	if !ok {
		return nil, fmt.Errorf("proc: job %q is not registered in this process", name)
	}
	return j, nil
}

// jobImpl binds a typed round to the untyped runnable interface.
type jobImpl[I any, K comparable, V, O any] struct {
	r engine.Round[I, K, V, O]
}
