// kill -9 integration tests: workers die mid-round — externally, mid
// map section, after the manifest commit, and during reduce — and the
// job must finish with output byte-identical to the single-process
// reference. Run under -race in the crashtest CI job across worker
// fleet sizes (MRPROC_WORKERS).
package proc

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runfile"
)

// crashOptions is the shared shape: small lease TTL so fencing is
// exercised quickly, a dwell knob so kills land mid-task, generous
// timeout for slow CI. MemoryBudget comes from the CI matrix
// (MRPROC_MEMBUDGET) so the same kills also land between mid-task
// spills.
func crashOptions(t *testing.T, extraEnv ...string) Options {
	return Options{
		Plan: engine.Plan{
			Workers: testWorkers(t), Partitions: 5,
			MemoryBudget: testMemBudget(t), ReduceSplitPairs: testSplitPairs(t),
		},
		LeaseTTL:  time.Second,
		Timeout:   90 * time.Second,
		WorkerEnv: append([]string{"MR_PROC_SLOW_MS=25"}, extraEnv...),
	}
}

// TestKill9MapWorkerMidRound kill -9s a live worker the moment the
// first map task commits — mid-round, while it and its peers hold
// leases and half-written spool state — and requires byte-identical
// output plus honest death accounting.
func TestKill9MapWorkerMidRound(t *testing.T) {
	lines := genLines(150)
	const parts = 5

	var mu sync.Mutex
	pids := make(map[string]int)
	var killOnce sync.Once
	killed := false

	opts := crashOptions(t)
	opts.Partitions = parts
	opts.Recorder = obs.NewRecorder(0)
	opts.Hooks = Hooks{
		OnSpawn: func(worker string, pid int) {
			mu.Lock()
			pids[worker] = pid
			mu.Unlock()
		},
		OnMapCommitted: func(task, attempt int, worker string) {
			killOnce.Do(func() {
				// Kill the worker that just committed: thanks to the dwell
				// knob it is already inside its next map task.
				mu.Lock()
				pid := pids[worker]
				mu.Unlock()
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
					killed = true
				}
			})
		},
	}
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, parts)) {
		t.Fatal("output after map-worker kill -9 diverges from single-process reference")
	}
	if met.WorkerDeaths < 1 {
		t.Errorf("WorkerDeaths = %d, want >= 1", met.WorkerDeaths)
	}

	// The recorder saw the whole story: a worker-life span that ended in
	// death, and the death instant itself.
	deaths := 0
	for _, lane := range opts.Recorder.Snapshot() {
		if lane.Kind != obs.LaneProc {
			continue
		}
		for _, ev := range lane.Events {
			if ev.Op == obs.OpWorkerDeath && ev.Kind == obs.KindInstant {
				deaths++
			}
		}
	}
	if deaths < 1 {
		t.Errorf("recorder saw %d worker-death instants, want >= 1", deaths)
	}
}

// TestKill9ReduceWorker kills the worker assigned partition 0's reduce
// task at the moment it starts; the re-executed attempt must produce
// identical output.
func TestKill9ReduceWorker(t *testing.T) {
	lines := genLines(120)
	opts := crashOptions(t, "MR_PROC_KILL=reduce:0")
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, opts.Partitions)) {
		t.Fatal("output after reduce-worker kill -9 diverges from single-process reference")
	}
	if met.WorkerDeaths < 1 {
		t.Errorf("WorkerDeaths = %d, want >= 1", met.WorkerDeaths)
	}
	if met.ReduceRetries < 1 {
		t.Errorf("ReduceRetries = %d, want >= 1", met.ReduceRetries)
	}
}

// TestKill9AfterManifestCommitSalvages kills a worker after it durably
// committed map task 1 but before its report left the process. The
// driver must adopt the committed sections from the manifest — not
// re-execute — and the output must be identical either way.
func TestKill9AfterManifestCommitSalvages(t *testing.T) {
	lines := genLines(120)
	opts := crashOptions(t, "MR_PROC_KILL=map-manifest:1")
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, opts.Partitions)) {
		t.Fatal("output after salvage diverges from single-process reference")
	}
	if met.WorkerDeaths < 1 {
		t.Errorf("WorkerDeaths = %d, want >= 1", met.WorkerDeaths)
	}
	if met.SalvagedTasks < 1 {
		t.Errorf("SalvagedTasks = %d, want >= 1 (task re-executed instead of adopted)", met.SalvagedTasks)
	}
}

// TestKill9MidSectionReexecutes kills a worker halfway through writing
// map task 0's first spool section — a torn, uncommitted section. The
// task must be re-executed (never salvaged from the torn bytes) and the
// output must be identical.
func TestKill9MidSectionReexecutes(t *testing.T) {
	lines := genLines(120)
	opts := crashOptions(t, "MR_PROC_KILL=map-torn:0")
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, opts.Partitions)) {
		t.Fatal("output after torn-section kill -9 diverges from single-process reference")
	}
	if met.WorkerDeaths < 1 {
		t.Errorf("WorkerDeaths = %d, want >= 1", met.WorkerDeaths)
	}
	if met.MapRetries < 1 {
		t.Errorf("MapRetries = %d, want >= 1 (torn task must re-run)", met.MapRetries)
	}
}

// TestKill9UnderSpill runs with a MemoryBudget small enough that map
// tasks spill multiple sections per partition — tasks of 30 lines, whose
// folded output (one pair per distinct word, ~84) exceeds the budget at
// every fleet size — and kills a worker
// inside the third task's spill sequence — after earlier sections of
// the same attempt already hit the spool. The retry must supersede ALL
// of the fenced attempt's sections (committed and torn alike) and the
// output must stay byte-identical to the single-process reference.
func TestKill9UnderSpill(t *testing.T) {
	lines := genLines(120)
	opts := crashOptions(t, "MR_PROC_KILL=map-torn:2")
	opts.MemoryBudget = 8
	opts.MapChunk = 30
	opts.Dir = t.TempDir()
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, opts.Partitions)) {
		t.Fatal("output after kill -9 under spill pressure diverges from single-process reference")
	}
	if met.WorkerDeaths < 1 {
		t.Errorf("WorkerDeaths = %d, want >= 1", met.WorkerDeaths)
	}
	if met.MapRetries < 1 {
		t.Errorf("MapRetries = %d, want >= 1 (torn task must re-run)", met.MapRetries)
	}
	// The kill must have landed mid-spill: some committed attempt in the
	// manifests carries a section with Seq >= 1.
	manifests, err := filepath.Glob(filepath.Join(opts.Dir, "manifest-*.log"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no manifests found: %v", err)
	}
	multiSection := false
	for _, mp := range manifests {
		entries, err := readManifest(runfile.OSFS, mp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			for _, sec := range e.Sections {
				if sec.Seq >= 1 {
					multiSection = true
				}
			}
		}
	}
	if !multiSection {
		t.Error("no multi-section attempt in any manifest: the budget never forced a mid-task spill")
	}
}

// TestHeartbeatKeepsSlowWorkerLeased dwells every task 3.5× the lease
// TTL: slow is not dead, so heartbeats (every TTL/3) must keep the
// leases renewed — zero expirations, zero retries, identical output.
// The inverse (a worker whose heartbeats stop) is covered by the kill
// tests above, where fencing and re-grant are required.
func TestHeartbeatKeepsSlowWorkerLeased(t *testing.T) {
	lines := genLines(40)
	opts := Options{
		Plan:      engine.Plan{Workers: 2, Partitions: 3},
		LeaseTTL:  200 * time.Millisecond,
		Timeout:   90 * time.Second,
		WorkerEnv: []string{"MR_PROC_SLOW_MS=700"},
	}
	outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, refWordCount(lines, opts.Partitions)) {
		t.Fatal("output of slow run diverges from reference")
	}
	// Heartbeats must have kept every lease alive despite each task
	// dwelling 3.5× the TTL.
	if met.LeaseExpirations != 0 || met.MapRetries != 0 {
		t.Errorf("heartbeats failed to keep slow workers leased: %+v", met)
	}
	if met.WorkerDeaths != 0 {
		t.Errorf("WorkerDeaths = %d in a crash-free run", met.WorkerDeaths)
	}
}
