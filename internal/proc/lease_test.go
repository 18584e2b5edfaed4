package proc

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// clockDriver is a driver over nMap map tasks and parts partitions, with
// no socket and no process, whose clock the test marches through *clock.
func clockDriver(t *testing.T, nMap, parts int, ttl time.Duration) (*Driver, *time.Time) {
	t.Helper()
	opts := Options{Plan: engine.Plan{Workers: 2, Partitions: parts}, LeaseTTL: ttl}
	opts.Plan = opts.Resolve()
	d := newDriver("wordcount", opts, t.TempDir(), make([]mapTaskSpec, nMap))
	clock := time.Unix(1000, 0)
	d.now = func() time.Time { return clock }
	return d, &clock
}

// grantTo is one poll that does not park: the grant, an exit, or TaskWait
// when nothing can be granted now.
func grantTo(d *Driver, worker string) Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.grantLocked(worker); ok {
		return t
	}
	return Task{Kind: TaskWait}
}

// sweep and exit run the driver's sweep and a worker's exit as their
// goroutines do, under the lock.
func sweep(d *Driver) {
	d.mu.Lock()
	d.sweepLocked()
	d.mu.Unlock()
}

func exit(d *Driver, worker string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.exitLocked(&workerProc{id: worker})
}

// mapReport is a good report of a map attempt with one section in
// partition 0.
func mapReport(worker string, task, attempt int) MapReport {
	return MapReport{Worker: worker, Task: task, Attempt: attempt,
		Sections: []Section{{Task: task, Attempt: attempt, Pairs: 1}}}
}

func hb(d *Driver, worker string, kind TaskKind, id, attempt int) bool {
	return d.heartbeat(HeartbeatArgs{Worker: worker, Kind: kind, ID: id, Attempt: attempt})
}

func TestLeaseGrantRenewComplete(t *testing.T) {
	d, clock := clockDriver(t, 1, 1, time.Second)
	if g := grantTo(d, "w1"); g.Kind != TaskMap || g.ID != 0 || g.Attempt != 0 {
		t.Fatalf("grant = %+v, want map task 0 attempt 0", g)
	}
	*clock = clock.Add(500 * time.Millisecond)
	if !hb(d, "w1", TaskMap, 0, 0) {
		t.Fatal("heartbeat of a live lease refused")
	}
	*clock = clock.Add(900 * time.Millisecond) // inside the renewed TTL
	sweep(d)
	if d.met.LeaseExpirations != 0 || !d.mapLeases[0].active {
		t.Fatal("the sweep fenced a renewed lease")
	}
	if !d.mapDone(mapReport("w1", 0, 0)) {
		t.Fatal("report of the current attempt refused")
	}
	if d.mapDone(mapReport("w1", 0, 0)) {
		t.Fatal("second report accepted")
	}
	if g := grantTo(d, "w2"); g.Kind == TaskMap {
		t.Fatalf("a done map task was granted again: %+v", g)
	}
}

func TestLeaseExpiryFencesAttempt(t *testing.T) {
	d, clock := clockDriver(t, 1, 1, time.Second)
	grantTo(d, "w1")
	*clock = clock.Add(1100 * time.Millisecond)
	sweep(d)
	if d.met.LeaseExpirations != 1 || d.mapLeases[0].active {
		t.Fatalf("sweep after the TTL: %d expirations, lease %+v; want the lease fenced", d.met.LeaseExpirations, d.mapLeases[0])
	}
	// The old owner is fenced on every path.
	if hb(d, "w1", TaskMap, 0, 0) {
		t.Fatal("heartbeat of an expired lease accepted")
	}
	if g := grantTo(d, "w2"); g.Kind != TaskMap || g.Attempt != 1 {
		t.Fatalf("re-grant = %+v, want map task 0 attempt 1", g)
	}
	if d.mapDone(mapReport("w1", 0, 0)) {
		t.Fatal("stale attempt's report accepted after the re-grant")
	}
	if !d.mapDone(mapReport("w2", 0, 1)) {
		t.Fatal("current attempt's report refused")
	}
	if d.mapLeases[0].grants != 2 || d.met.MapRetries != 1 {
		t.Errorf("grants = %d, retries = %d; want 2 and 1", d.mapLeases[0].grants, d.met.MapRetries)
	}
}

func TestLeaseExpireOwner(t *testing.T) {
	d, _ := clockDriver(t, 3, 1, time.Minute)
	for _, w := range []string{"w1", "w1", "w2"} {
		grantTo(d, w)
	}
	if !exit(d, "w1") {
		t.Error("the first death did not ask for a replacement")
	}
	if d.mapLeases[0].active || d.mapLeases[1].active {
		t.Fatal("a dead worker's leases survived its exit")
	}
	if !d.mapLeases[2].active {
		t.Fatal("w2's lease was collaterally fenced")
	}
	if hb(d, "w1", TaskMap, 0, 0) || hb(d, "w1", TaskMap, 1, 0) {
		t.Fatal("a dead owner can still renew")
	}
	if d.met.WorkerDeaths != 1 || d.met.LeaseExpirations != 0 {
		t.Errorf("deaths = %d, expirations = %d; want 1 and 0", d.met.WorkerDeaths, d.met.LeaseExpirations)
	}
}

func TestLeaseReleaseAndSalvage(t *testing.T) {
	d, _ := clockDriver(t, 2, 1, time.Minute)
	grantTo(d, "w1")
	fail := MapReport{Worker: "w1", Task: 0, Attempt: 0, Err: "disk full"}
	if d.mapDone(fail) {
		t.Fatal("failed report accepted")
	}
	if l := d.mapLeases[0]; l.active || l.done {
		t.Fatalf("released lease = %+v, want inactive and not done", l)
	}
	if g := grantTo(d, "w2"); g.ID != 0 || g.Attempt != 1 {
		t.Fatalf("grant after release = %+v, want task 0 attempt 1", g)
	}
	d.mapDone(fail) // stale: must not release attempt 1
	if !d.mapLeases[0].active {
		t.Fatal("a stale failure released the current attempt")
	}
	// Salvage adopts a dead worker's committed attempt 0, once, whatever
	// the current attempt.
	sec := buildSection(t, d.dir)
	m, err := openManifest(d.dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.commit(manifestEntry{Task: 0, Attempt: 0, PairsEmitted: 6, Sections: []Section{sec}}); err != nil {
		t.Fatal(err)
	}
	m.close()
	exit(d, "w1")
	exit(d, "w1")
	if !d.mapLeases[0].done || d.met.SalvagedTasks != 1 || d.mapsDone != 1 {
		t.Fatalf("after two replays: lease %+v, %d salvaged, %d maps done; want done, 1, 1",
			d.mapLeases[0], d.met.SalvagedTasks, d.mapsDone)
	}
	if d.mapDone(mapReport("w2", 0, 1)) {
		t.Fatal("report accepted after salvage")
	}
}

// TestSalvageRefusesForgedEntries: a manifest entry of a task the job
// has not, of an attempt never granted, or whose sections name another
// task or attempt or a partition the job has not, is skipped, not
// adopted: it must neither count toward the map phase (which would open
// the reduce phase with a map task missing) nor index a partition.
func TestSalvageRefusesForgedEntries(t *testing.T) {
	d, _ := clockDriver(t, 2, 2, time.Minute)
	grantTo(d, "w1") // task 0 attempt 0
	sec := buildSection(t, d.dir)
	tagged := func(task, attempt, part int) []Section {
		s := sec
		s.Task, s.Attempt, s.Part = task, attempt, part
		return []Section{s}
	}
	m, err := openManifest(d.dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []manifestEntry{
		{Task: 7, Attempt: 0, Sections: tagged(7, 0, 0)},
		{Task: -1, Attempt: 0, Sections: tagged(-1, 0, 0)},
		{Task: 1, Attempt: 0, Sections: tagged(1, 0, 0)}, // task 1 was never granted
		{Task: 0, Attempt: 3, Sections: tagged(0, 3, 0)},
		{Task: 0, Attempt: 0, Sections: tagged(0, 0, 2)},
		{Task: 0, Attempt: 0, Sections: tagged(0, 0, -1)},
		{Task: 0, Attempt: 0, Sections: tagged(1, 0, 0)},
		{Task: 0, Attempt: 0, Sections: tagged(0, 1, 0)},
	} {
		if err := m.commit(e); err != nil {
			t.Fatal(err)
		}
	}
	m.close()
	exit(d, "w1")
	if d.met.SalvagedTasks != 0 || d.mapsDone != 0 || d.reduceReady || d.failure != nil {
		t.Fatalf("forged manifest: %d salvaged, %d maps done, reduce open %v, failure %v; want none",
			d.met.SalvagedTasks, d.mapsDone, d.reduceReady, d.failure)
	}
}

// TestReportsRefuseUnknownIDs: a heartbeat or report naming a task or a
// partition the job has not, or a map report whose sections are
// mistagged, is refused without failing the job or panicking.
func TestReportsRefuseUnknownIDs(t *testing.T) {
	d, _ := clockDriver(t, 1, 2, time.Minute)
	grantTo(d, "w1")
	for _, a := range []HeartbeatArgs{
		{Worker: "w1", Kind: TaskMap, ID: 1}, {Worker: "w1", Kind: TaskMap, ID: -1},
		{Worker: "w1", Kind: TaskReduce, ID: 2}, {Worker: "w1", Kind: TaskReduce, ID: -1},
		{Worker: "w1", Kind: TaskWait, ID: 0}, {Worker: "w1", Kind: TaskExit, ID: 0},
	} {
		if d.heartbeat(a) {
			t.Errorf("heartbeat %+v accepted", a)
		}
	}
	for _, rep := range []MapReport{
		mapReport("w1", 1, 0),
		mapReport("w1", -1, 0),
		{Worker: "w1", Task: 5, Attempt: 0, Err: "boom", Fatal: true},
		{Worker: "w1", Task: 0, Attempt: 0, Sections: []Section{{Task: 0, Attempt: 0, Part: 2, Pairs: 1}}},
		{Worker: "w1", Task: 0, Attempt: 0, Sections: []Section{{Task: 0, Attempt: 0, Part: -1, Pairs: 1}}},
		{Worker: "w1", Task: 0, Attempt: 0, Sections: []Section{{Task: 0, Attempt: 1, Pairs: 1}}},
	} {
		if d.mapDone(rep) {
			t.Errorf("map report %+v accepted", rep)
		}
	}
	for _, rep := range []ReduceReport{
		{Worker: "w1", Part: 2, Attempt: 0},
		{Worker: "w1", Part: -1, Attempt: 0, Err: "boom", Fatal: true},
		{Worker: "w1", Part: 0, Attempt: -1},
	} {
		if d.reduceDone(rep) {
			t.Errorf("reduce report %+v accepted", rep)
		}
	}
	if d.failure != nil || d.mapsDone != 0 {
		t.Fatalf("forged reports: failure %v, %d maps done; want neither", d.failure, d.mapsDone)
	}
	// The mistagged report was the current attempt's: it counts as failed
	// and frees the task for a prompt re-grant.
	if g := grantTo(d, "w2"); g.Kind != TaskMap || g.Attempt != 1 {
		t.Fatalf("grant after a mistagged report = %+v, want map task 0 attempt 1", g)
	}
}
