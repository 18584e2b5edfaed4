package proc

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// The schedule simulation drives one Driver, in one goroutine and on a
// hand-marched clock, with fake workers and no socket or process. Each
// seed plays a random interleaving of polls (grantLocked, which does not
// park), heartbeats, good, failed, stale and duplicate reports, forged
// ids, worker exits before and after a manifest commit, forged manifest
// entries and clock jumps past the lease TTL; then it drains the job with
// good reports only. After every event it checks the invariants below,
// and at the end that the job finished, or failed with a named error.

// simTTL is the simulated lease TTL.
const simTTL = time.Second

type simWorker struct {
	id   string
	held *Task // the assignment it runs, nil when idle
	man  *manifestWriter
}

type simulation struct {
	t     *testing.T
	rng   *rand.Rand
	d     *Driver
	clock time.Time
	live  []*simWorker
	spawn int

	sec      Section // a real committed section, retagged per commit
	mapParts [][]int // the partitions each map task writes

	// What the driver granted and accepted, as the workers saw it.
	grants      []Task
	latest      map[[2]int]int // (kind, id) -> last attempt granted
	mapAccepted map[int]int    // task -> accepted attempt (OnMapCommitted)
	mapAccepts  map[int]int    // task -> acceptances
	redAccepts  map[int]int    // partition -> accepted reports
	mapReports  []MapReport    // accepted, for duplicates
	redReports  []ReduceReport // accepted, for duplicates

	log  []string // the events so far, for a failure message
	errs []string
}

func newSimulation(t *testing.T, seed int64) *simulation {
	rng := rand.New(rand.NewSource(seed))
	nMap, parts, workers := 1+rng.Intn(8), 1+rng.Intn(4), 1+rng.Intn(3)
	s := &simulation{
		t: t, rng: rng, clock: time.Unix(1000, 0),
		latest:      make(map[[2]int]int),
		mapAccepted: make(map[int]int),
		mapAccepts:  make(map[int]int),
		redAccepts:  make(map[int]int),
	}
	opts := Options{Plan: engine.Plan{Workers: workers, Partitions: parts}, LeaseTTL: simTTL}
	opts.Plan = opts.Resolve()
	opts.Hooks.OnMapCommitted = func(task, attempt int, _ string) {
		s.mapAccepts[task]++
		s.mapAccepted[task] = attempt
	}
	s.d = newDriver("wordcount", opts, t.TempDir(), make([]mapTaskSpec, nMap))
	s.d.now = func() time.Time { return s.clock }
	s.sec = buildSection(t, s.d.dir)
	for range nMap {
		var ps []int
		for p := range parts {
			if rng.Intn(3) > 0 {
				ps = append(ps, p)
			}
		}
		s.mapParts = append(s.mapParts, ps)
	}
	for range workers {
		s.addWorker()
	}
	return s
}

func (s *simulation) addWorker() {
	w := &simWorker{id: fmt.Sprintf("w%d", s.spawn)}
	s.spawn++
	m, err := openManifest(s.d.dir, w.id)
	if err != nil {
		s.t.Fatal(err)
	}
	w.man = m
	s.d.workers[w.id] = &workerProc{id: w.id}
	s.live = append(s.live, w)
}

func (s *simulation) close() {
	for _, w := range s.live {
		w.man.close()
	}
}

func (s *simulation) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *simulation) violate(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// fenced is the model's verdict on an attempt: superseded by a later
// grant, or its task already accepted.
func (s *simulation) fenced(kind TaskKind, id, attempt int) bool {
	last, ok := s.latest[[2]int{int(kind), id}]
	if !ok || attempt != last {
		return true
	}
	if kind == TaskMap {
		return s.mapAccepts[id] > 0
	}
	return s.redAccepts[id] > 0
}

// sections is what a map attempt commits: one section per partition it
// writes, tagged with the attempt.
func (s *simulation) sections(task, attempt int) []Section {
	var secs []Section
	for _, p := range s.mapParts[task] {
		sec := s.sec
		sec.Task, sec.Attempt, sec.Part = task, attempt, p
		secs = append(secs, sec)
	}
	return secs
}

func (s *simulation) commit(w *simWorker, task, attempt int) {
	if err := w.man.commit(manifestEntry{Task: task, Attempt: attempt, Sections: s.sections(task, attempt)}); err != nil {
		s.t.Fatal(err)
	}
}

func (s *simulation) poll(w *simWorker) {
	s.d.mu.Lock()
	t, ok := s.d.grantLocked(w.id)
	s.d.mu.Unlock()
	switch {
	case !ok:
		s.logf("poll %s: nothing", w.id)
	case t.Kind == TaskExit:
		s.logf("poll %s: exit", w.id)
		s.exit(w, false)
	default:
		s.logf("poll %s: kind %d id %d attempt %d", w.id, t.Kind, t.ID, t.Attempt)
		if t.Kind == TaskReduce && len(s.mapAccepts) < len(s.d.tasks) {
			s.violate("partition %d granted with %d of %d map tasks accepted", t.ID, len(s.mapAccepts), len(s.d.tasks))
		}
		w.held = &t
		s.grants = append(s.grants, t)
		s.latest[[2]int{int(t.Kind), t.ID}] = t.Attempt
	}
}

// report sends a report of assignment t from worker w: good, or failed
// when failed is set. A good map report of a live worker commits to its
// manifest first, as a worker does.
func (s *simulation) report(w *simWorker, t Task, failed bool) {
	fenced := s.fenced(t.Kind, t.ID, t.Attempt)
	var ok bool
	if t.Kind == TaskMap {
		rep := MapReport{Worker: w.id, Task: t.ID, Attempt: t.Attempt, PairsEmitted: 1, Sections: s.sections(t.ID, t.Attempt)}
		if failed {
			rep.Sections, rep.Err = nil, "injected failure"
		} else if w.man != nil {
			s.commit(w, t.ID, t.Attempt)
		}
		if ok = s.d.mapDone(rep); ok {
			s.mapReports = append(s.mapReports, rep)
		}
	} else {
		rep := ReduceReport{Worker: w.id, Part: t.ID, Attempt: t.Attempt, OutPath: "out", Outputs: 1}
		if failed {
			rep.Err = "injected failure"
		}
		if ok = s.d.reduceDone(rep); ok {
			s.redAccepts[t.ID]++
			s.redReports = append(s.redReports, rep)
		}
	}
	s.logf("report %s kind %d id %d attempt %d failed %v: fenced %v accepted %v", w.id, t.Kind, t.ID, t.Attempt, failed, fenced, ok)
	if ok && (fenced || failed) {
		s.violate("fenced or failed report accepted: %s kind %d id %d attempt %d", w.id, t.Kind, t.ID, t.Attempt)
	}
	if !ok && !fenced && !failed {
		s.violate("current attempt's good report refused: %s kind %d id %d attempt %d", w.id, t.Kind, t.ID, t.Attempt)
	}
}

// exit kills worker w; with commit set, w first commits the map task it
// holds to its manifest (a crash after the commit, before the report).
func (s *simulation) exit(w *simWorker, commit bool) {
	if commit && w.held != nil && w.held.Kind == TaskMap {
		s.commit(w, w.held.ID, w.held.Attempt)
	}
	for i, x := range s.live {
		if x == w {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	w.man.close()
	s.d.mu.Lock()
	respawn := s.d.exitLocked(&workerProc{id: w.id})
	s.d.mu.Unlock()
	s.logf("exit %s commit %v: respawn %v", w.id, commit, respawn)
	if respawn {
		s.addWorker()
	}
}

// jump moves the clock by up to 1.5 TTLs and runs the sweep.
func (s *simulation) jump(d time.Duration) {
	s.clock = s.clock.Add(d)
	s.d.mu.Lock()
	s.d.sweepLocked()
	s.d.mu.Unlock()
	s.logf("clock +%v", d)
}

// forge sends the driver heartbeats and reports naming ids the job has
// not, or a section with a partition it has not: each must be refused.
func (s *simulation) forge() {
	n, p := len(s.d.tasks), len(s.d.reduceLeases)
	bad := []bool{
		s.d.heartbeat(HeartbeatArgs{Worker: "x", Kind: TaskMap, ID: n}),
		s.d.heartbeat(HeartbeatArgs{Worker: "x", Kind: TaskReduce, ID: -1}),
		s.d.mapDone(MapReport{Worker: "x", Task: n + s.rng.Intn(3)}),
		s.d.mapDone(MapReport{Worker: "x", Task: -1, Err: "forged", Fatal: true}),
		s.d.reduceDone(ReduceReport{Worker: "x", Part: p}),
		s.d.reduceDone(ReduceReport{Worker: "x", Part: -1, Err: "forged", Fatal: true}),
	}
	if len(s.grants) > 0 {
		g := s.grants[s.rng.Intn(len(s.grants))]
		if g.Kind == TaskMap {
			secs := s.sections(g.ID, g.Attempt)
			secs = append(secs, Section{Task: g.ID, Attempt: g.Attempt, Part: p})
			bad = append(bad, s.d.mapDone(MapReport{Worker: "x", Task: g.ID, Attempt: g.Attempt, Sections: secs}))
		}
	}
	s.logf("forged reports")
	for i, ok := range bad {
		if ok {
			s.violate("forged message %d accepted", i)
		}
	}
}

// forgeManifest appends an entry salvage must skip to w's manifest: a
// task the job has not, an attempt never granted, or a mistagged section.
func (s *simulation) forgeManifest(w *simWorker) {
	n, p := len(s.d.tasks), len(s.d.reduceLeases)
	e := manifestEntry{Task: s.rng.Intn(n)}
	forge := s.rng.Intn(4)
	switch forge {
	case 0:
		e.Task = n + s.rng.Intn(3) // a task the job has not
	case 1:
		e.Attempt = maxTaskAttempts // an attempt no task is granted
	}
	sec := s.sec
	sec.Task, sec.Attempt = e.Task, e.Attempt
	switch forge {
	case 2:
		sec.Part = p // a partition the job has not
	case 3:
		sec.Task++ // a section of another task
	}
	e.Sections = []Section{sec}
	if err := w.man.commit(e); err != nil {
		s.t.Fatal(err)
	}
	s.logf("forged manifest entry of %s: task %d attempt %d section task %d attempt %d part %d",
		w.id, e.Task, e.Attempt, sec.Task, sec.Attempt, sec.Part)
}

// grantable is whether a poll now would get a grant or an exit.
func grantable(d *Driver) bool {
	if d.finished {
		return true
	}
	if d.mapsDone < len(d.tasks) {
		for _, l := range d.mapLeases {
			if !l.active && !l.done {
				return true
			}
		}
		return false
	}
	for _, p := range d.reduceParts {
		if l := d.reduceLeases[p]; !l.active && !l.done {
			return true
		}
	}
	return false
}

// step plays one event and checks the invariants after it.
func (s *simulation) step(event func()) {
	s.d.mu.Lock()
	wake, before := s.d.wake, grantable(s.d)
	s.d.mu.Unlock()
	event()
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	d := s.d
	if !before && grantable(d) {
		select {
		case <-wake:
		default:
			s.violate("lost wake: a grant became possible and the parked polls were not woken")
		}
	}
	for task, n := range s.mapAccepts {
		if n > 1 || task < 0 || task >= len(d.tasks) {
			s.violate("map task %d accepted %d times (job has %d)", task, n, len(d.tasks))
		}
	}
	for _, secs := range d.reduceSections {
		for _, sec := range secs {
			if a, ok := s.mapAccepted[sec.Task]; !ok || a != sec.Attempt {
				s.violate("section of task %d attempt %d is reduce input, but that attempt was not accepted", sec.Task, sec.Attempt)
			}
		}
	}
	if d.reduceReady && len(s.mapAccepts) < len(d.tasks) {
		s.violate("reduce phase open with %d of %d map tasks accepted", len(s.mapAccepts), len(d.tasks))
	}
	for p, n := range s.redAccepts {
		if n > 1 {
			s.violate("partition %d accepted %d times", p, n)
		}
	}
}

// failures names every error the driver may fail a job with here.
var failures = regexp.MustCompile(`^proc: (map task|reduce partition) \d+ failed after \d+ attempts$|^proc: all workers dead and restart budget \(\d+\) spent$`)

// runSchedule plays seed's schedule and returns the invariants it broke.
func runSchedule(t *testing.T, seed int64) []string {
	s := newSimulation(t, seed)
	defer s.close()
	for range 40 + s.rng.Intn(260) {
		if s.d.finished || len(s.errs) > 0 {
			break
		}
		s.step(s.randomEvent)
	}
	// Drain: every worker reports what it holds and polls again, with
	// the clock pushed on when nobody can move.
	for range 2000 {
		if s.d.finished || len(s.errs) > 0 || len(s.live) == 0 {
			break
		}
		moved := false
		for _, w := range append([]*simWorker(nil), s.live...) {
			if w.held != nil {
				t := *w.held
				w.held = nil
				s.step(func() { s.report(w, t, false) })
				moved = true
			} else {
				s.step(func() { s.poll(w) })
				moved = moved || w.held != nil
			}
		}
		if !moved {
			s.step(func() { s.jump(2 * simTTL) })
		}
	}
	d := s.d
	switch {
	case len(s.errs) > 0:
	case !d.finished:
		s.violate("the job stuck: %d of %d maps, %d of %d partitions done, %d workers", d.mapsDone, len(d.tasks), d.reducesDone, len(d.reduceParts), len(s.live))
	case d.failure != nil:
		if !failures.MatchString(d.failure.Error()) {
			s.violate("the job failed with an unnamed error: %v", d.failure)
		}
	default:
		want := 0
		for p := range d.reduceLeases {
			for _, ps := range s.mapParts {
				if slices.Contains(ps, p) {
					want++
					break
				}
			}
		}
		if len(s.mapAccepts) != len(d.tasks) || len(s.redAccepts) != want || len(d.reduceParts) != want {
			s.violate("finished with %d of %d maps and %d of %d partitions accepted", len(s.mapAccepts), len(d.tasks), len(s.redAccepts), want)
		}
	}
	if len(s.errs) > 0 {
		tail := s.log[max(0, len(s.log)-25):]
		return append(s.errs, "last events:\n\t"+strings.Join(tail, "\n\t"))
	}
	return nil
}

// randomEvent plays one random event of the schedule.
func (s *simulation) randomEvent() {
	var idle, busy []*simWorker
	for _, w := range s.live {
		if w.held == nil {
			idle = append(idle, w)
		} else {
			busy = append(busy, w)
		}
	}
	pick := func(ws []*simWorker) *simWorker { return ws[s.rng.Intn(len(ws))] }
	switch r := s.rng.Intn(100); {
	case r < 30:
		if len(idle) > 0 {
			s.poll(pick(idle))
		}
	case r < 45:
		if len(busy) > 0 {
			w := pick(busy)
			t := *w.held
			ok := s.d.heartbeat(HeartbeatArgs{Worker: w.id, Kind: t.Kind, ID: t.ID, Attempt: t.Attempt})
			s.logf("heartbeat %s kind %d id %d attempt %d: %v", w.id, t.Kind, t.ID, t.Attempt, ok)
			if ok && s.fenced(t.Kind, t.ID, t.Attempt) {
				s.violate("fenced heartbeat renewed: %s kind %d id %d attempt %d", w.id, t.Kind, t.ID, t.Attempt)
			}
			if !ok && s.rng.Intn(2) == 0 {
				w.held = nil // the worker abandons its fenced attempt
			}
		}
	case r < 68:
		if len(busy) > 0 {
			w := pick(busy)
			t := *w.held
			w.held = nil
			s.report(w, t, r >= 62)
		}
	case r < 76:
		// A stale report: of any attempt ever granted, arriving late.
		if len(s.grants) > 0 {
			s.report(&simWorker{id: "late"}, s.grants[s.rng.Intn(len(s.grants))], false)
		}
	case r < 80:
		// A duplicate of an accepted report.
		if i := s.rng.Intn(len(s.mapReports) + len(s.redReports) + 1); i < len(s.mapReports) {
			rep := s.mapReports[i]
			s.report(&simWorker{id: rep.Worker}, Task{Kind: TaskMap, ID: rep.Task, Attempt: rep.Attempt}, false)
		} else if i -= len(s.mapReports); i < len(s.redReports) {
			rep := s.redReports[i]
			s.report(&simWorker{id: rep.Worker}, Task{Kind: TaskReduce, ID: rep.Part, Attempt: rep.Attempt}, false)
		}
	case r < 83:
		s.exit(pick(s.live), r == 82)
	case r < 93:
		s.jump(time.Duration(s.rng.Int63n(int64(3 * simTTL / 2))))
	case r < 96:
		s.forge()
	default:
		s.forgeManifest(pick(s.live))
	}
}

// driverSeeds is the fixed seed set tier-1 runs.
const driverSeeds = 300

func TestDriverSchedules(t *testing.T) {
	for seed := range int64(driverSeeds) {
		if errs := runSchedule(t, seed); errs != nil {
			t.Errorf("seed %d:\n%s", seed, strings.Join(errs, "\n"))
		}
	}
}

func FuzzDriverSchedule(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if errs := runSchedule(t, seed); errs != nil {
			t.Errorf("seed %d:\n%s", seed, strings.Join(errs, "\n"))
		}
	})
}
