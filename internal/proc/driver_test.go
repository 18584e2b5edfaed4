package proc

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestParkedPollGetsReduceGrant: a worker polling at the map→reduce
// barrier parks in the driver instead of sleeping between polls, and
// the last map commit (Hooks.OnMapCommitted) wakes it with its reduce
// grant within a few milliseconds, well under the park bound, after one
// or two polls rather than a spin.
func TestParkedPollGetsReduceGrant(t *testing.T) {
	var committed atomic.Int64 // when the last map was accepted, Unix ns
	opts := Options{
		Plan:  engine.Plan{Workers: 2, Partitions: 2},
		Hooks: Hooks{OnMapCommitted: func(int, int, string) { committed.Store(time.Now().UnixNano()) }},
	}
	opts.Plan = opts.Resolve()
	d := newDriver("wordcount", opts, t.TempDir(), []mapTaskSpec{{lo: 0, hi: 1}})
	m := d.poll("w0")
	if m.Kind != TaskMap {
		t.Fatalf("first poll = %+v, want the map task", m)
	}
	type grant struct {
		task  Task
		at    time.Time
		polls int
	}
	got := make(chan grant)
	start := time.Now()
	go func() {
		for polls := 1; ; polls++ {
			if tk := d.poll("w1"); tk.Kind != TaskWait {
				got <- grant{tk, time.Now(), polls}
				return
			}
		}
	}()
	time.Sleep(pollPark / 4) // w1 is parked: the only map task is leased
	if !d.mapDone(MapReport{Worker: "w0", Task: m.ID, Attempt: m.Attempt, Sections: []Section{{Part: 1, Pairs: 1}}}) {
		t.Fatal("map report refused")
	}
	g := <-got
	if g.task.Kind != TaskReduce || g.task.ID != 1 {
		t.Fatalf("parked poll got %+v, want partition 1's reduce task", g.task)
	}
	if lag := g.at.Sub(time.Unix(0, committed.Load())); lag > pollPark/2 {
		t.Errorf("reduce grant came %v after the last map commit, want well under %v", lag, pollPark)
	}
	if most := 2 + int(g.at.Sub(start)/pollPark); g.polls > most {
		t.Errorf("worker polled %d times in %v, want at most %d: polls do not park", g.polls, g.at.Sub(start), most)
	}
}
