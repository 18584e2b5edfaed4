package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/shuffle"
)

// Repetition counts. A run measures for -seconds seconds but never fewer
// than minTimedReps repetitions; a -quick run does one of each.
const (
	setupRounds  = 3 // set-ups per run; setup_s is their median
	minTimedReps = 5
	maxTimedReps = 200
	tracedReps   = 3 // at least; more while they fit into half of -seconds
	inprocReps   = 3 // hamming_spill repetitions inside a traced hamming_proc run
	procWorkers  = 2
	procParts    = 8
)

// options are one run's settings, shared by parent and child process.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// report is what measuring one workload produces. A child process prints
// it as JSON on its last line of standard output.
type report struct {
	Workload   string
	Sizes      string
	Attempted  int // repetitions run, warm-ups and traced ones included
	Failed     int
	Failures   []string
	TimedReps  int
	SetupReps  int
	TracedReps int
	E2E        map[string]float64
	Layers     map[string]float64 `json:",omitempty"`
	Breakdown  []string           `json:",omitempty"`
	TraceFile  string             `json:",omitempty"`
}

// harness runs the repetitions of one workload inside one scratch tree.
type harness struct {
	w       *workload
	o       options
	scratch string
	workers int
	rep     *report
	nextDir int
}

// repResult is one repetition as seen from outside the program.
type repResult struct {
	ok     bool
	wall   float64 // inputs in memory -> outputs returned; verification excluded
	cpu    float64 // user+sys, this process and reaped children
	rounds []mr.RoundMetrics
	// workersMB is the largest VmHWM any ProcMode worker reached.
	workersMB float64
}

// traceCtx arms a repetition with the obs recorder and a harness root span.
type traceCtx struct {
	tr       *tracer
	rec      *obs.Recorder
	offset   int64 // tracer time at which the recorder's clock started
	root     int
	allocMB  float64
	gcCycles float64
}

// config is the mr.Config a workload's repetitions run under.
func (h *harness) config(inst *instance, proc bool, dir string, rec *obs.Recorder) mr.Config {
	cfg := mr.Config{Workers: h.workers, MemoryBudget: inst.budget, Recorder: rec}
	switch {
	case proc:
		cfg.ProcMode, cfg.Workers, cfg.Partitions, cfg.ProcDir = true, procWorkers, procParts, dir
	case inst.budget > 0:
		cfg.SpillDir = dir
	}
	return cfg
}

// fail records one failed operation.
func (h *harness) fail(format string, args ...any) {
	h.rep.Failed++
	if len(h.rep.Failures) < 8 {
		h.rep.Failures = append(h.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes one repetition: the job inside the timer; verification
// against the reference and the schema's prediction, scratch clean-up
// and the leak checks outside it. A repetition with any finding counts as
// one failed operation.
func (h *harness) run(inst *instance, proc bool, tc *traceCtx) repResult {
	h.rep.Attempted++
	h.nextDir++
	dir := filepath.Join(h.scratch, fmt.Sprintf("rep-%d", h.nextDir))
	if err := os.Mkdir(dir, 0o755); err != nil {
		h.fail("scratch: %v", err)
		return repResult{}
	}
	var rec *obs.Recorder
	if tc != nil {
		rec = tc.rec
	}
	cfg := h.config(inst, proc, dir, rec)

	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	if tc != nil {
		runtime.ReadMemStats(&ms0)
		tc.root = tc.tr.begin("traced_rep", -1)
	}
	workersMB := func() float64 { return 0 }
	if proc {
		workersMB = watchWorkers()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, rounds, err := inst.run(cfg)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	workers := workersMB()
	if tc != nil {
		tc.tr.end(tc.root)
		runtime.ReadMemStats(&ms1)
		tc.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
		tc.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	}

	var bad []string
	if err != nil {
		bad = append(bad, err.Error())
	} else {
		bad = inst.check(out, rounds)
		if proc {
			bad = append(bad, checkSpool(dir, rounds[0].Metrics)...)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		bad = append(bad, "scratch: "+err.Error())
	}
	if left := leftovers(h.scratch); len(left) > 0 {
		bad = append(bad, "left in scratch: "+strings.Join(left, " "))
	}
	if pids := childProcesses(); len(pids) > 0 {
		bad = append(bad, fmt.Sprintf("worker processes remain: %v", pids))
		killAll(pids)
	}
	if len(bad) > 0 {
		h.fail("%s: %s", h.w.name, strings.Join(bad, "; "))
	}
	return repResult{ok: len(bad) == 0, wall: wall, cpu: cpu, rounds: rounds, workersMB: workers}
}

// checkSpool asserts that in a fault-free ProcMode run the spool files
// hold exactly the bytes the metrics report as spilled.
func checkSpool(dir string, m mr.Metrics) []string {
	spools, _ := filepath.Glob(filepath.Join(dir, "spool-*.run"))
	var onDisk int64
	for _, p := range spools {
		if st, err := os.Stat(p); err == nil {
			onDisk += st.Size()
		}
	}
	if want := m.BytesSpilled + m.IndexBytesSpilled; onDisk != want {
		return []string{fmt.Sprintf("spool files hold %d bytes, BytesSpilled+IndexBytesSpilled = %d", onDisk, want)}
	}
	return nil
}

// measure runs one workload: set-ups (each with its warm-up repetition),
// the timed repetitions, and with o.trace the traced repetitions and the
// ladder. The caller owns scratch and removes it.
func measure(w *workload, o options, scratch string) (*report, error) {
	sz, setups, minReps, nTraced, nInproc := fullSizes, setupRounds, minTimedReps, tracedReps, inprocReps
	if o.quick {
		sz, setups, minReps, nTraced, nInproc = quickSizes, 1, 1, 1, 1
		o.seconds = 0
	}
	defer shuffle.WithSeed(uint64(o.seed))()
	h := &harness{w: w, o: o, scratch: scratch, workers: min(runtime.NumCPU(), 4),
		rep: &report{Workload: w.name, E2E: map[string]float64{}}}
	rep := h.rep

	// Set-up: inputs, schema, serial reference, and the warm-up repetition.
	var inst *instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(sz, o.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		prep := time.Since(t0).Seconds()
		if r := h.run(inst, w.proc, nil); r.ok {
			setupS = append(setupS, prep+r.wall)
		}
	}
	rep.Sizes, rep.SetupReps = inst.desc, len(setupS)

	// Timed repetitions, untraced: the only source of end-to-end metrics.
	var walls, cpus []float64
	var last repResult
	var workersMB float64
	for start := time.Now(); len(walls) < minReps || time.Since(start).Seconds() < o.seconds; {
		if r := h.run(inst, w.proc, nil); r.ok {
			walls, cpus, last = append(walls, r.wall), append(cpus, r.cpu), r
			workersMB = max(workersMB, r.workersMB)
		}
		if rep.Attempted >= maxTimedReps || rep.Failed >= 3 {
			break
		}
	}
	rep.TimedReps = len(walls)
	if len(walls) == 0 || len(setupS) == 0 {
		return rep, fmt.Errorf("%s: no repetition succeeded: %v", w.name, rep.Failures)
	}
	var pairs int64
	for _, r := range last.rounds {
		pairs += r.Metrics.PairsEmitted
	}
	rep.E2E["wall_s"] = median(walls)
	rep.E2E["pairs_per_s"] = float64(pairs) / median(walls)
	rep.E2E["peak_rss_mb"] = peakRSSMB() + procWorkers*workersMB
	rep.E2E["setup_s"] = median(setupS)
	if !o.trace {
		return rep, nil
	}
	layers := roundMetrics(last.rounds, w.proc)
	layers["mr.cpu_s"] = median(cpus)
	layers["core.r_bound"], layers["core.r_gap"] = inst.bound(last.rounds)
	layers["proc.worker_peak_rss_mb"] = workersMB
	rep.Layers = layers
	return rep, h.traceLayers(inst, sz, nTraced, nInproc)
}

// traceLayers fills in the per-layer metrics that need the traced
// repetitions (recorder armed, one harness root span each) and the ladder,
// and writes the workload's spans out.
func (h *harness) traceLayers(inst *instance, sz sizes, nTraced, nInproc int) error {
	w, o, rep, layers, scratch := h.w, h.o, h.rep, h.rep.Layers, h.scratch
	tr := newTracer(w.name)
	perRep := map[string][]float64{}
	var dropped int64
	var lastRoot int
	// Each traced repetition is paired with an untraced one run just
	// before it, so that drift of the machine between the timed
	// repetitions and these does not read as recorder overhead. At least
	// nTraced pairs, and as many as fit into half of -seconds.
	for start := time.Now(); rep.TracedReps < nTraced || time.Since(start).Seconds() < o.seconds/2; {
		if rep.Attempted >= 2*maxTimedReps || rep.Failed >= 3 {
			break
		}
		if u := h.run(inst, w.proc, nil); u.ok {
			perRep["untraced"] = append(perRep["untraced"], u.wall)
		}
		tc := &traceCtx{tr: tr, offset: tr.now(), rec: obs.NewRecorder(0)}
		r := h.run(inst, w.proc, tc)
		if !r.ok {
			continue
		}
		snap := tc.rec.Snapshot()
		importSpans(tr, tc.root, snap, tc.offset)
		m := spanMetrics(snap)
		m["mr.traced_wall_s"] = r.wall
		m["mr.self_s"] = seconds(selfTimes(tr.spans)[tc.root])
		m["mr.alloc_mb"], m["mr.gc_cycles"] = tc.allocMB, tc.gcCycles
		for k, v := range m {
			perRep[k] = append(perRep[k], v)
		}
		dropped = max(dropped, tc.rec.Dropped())
		lastRoot = tc.root
		rep.TracedReps++
	}
	if rep.TracedReps == 0 || len(perRep["untraced"]) == 0 {
		return fmt.Errorf("%s: no traced repetition succeeded: %v", w.name, rep.Failures)
	}
	untraced := median(perRep["untraced"])
	delete(perRep, "untraced")
	for k, vs := range perRep {
		layers[k] = median(vs)
	}
	layers["obs.overhead_ratio"] = layers["mr.traced_wall_s"]/untraced - 1
	layers["obs.dropped_events"] = float64(dropped)
	rep.Breakdown = breakdown(tr.spans, lastRoot)

	// hamming_proc over hamming_spill: the same inputs, in process.
	layers["proc.vs_inproc"] = 0
	if w.proc {
		twin, err := workloadByName("hamming_spill").setup(sz, o.seed)
		if err != nil {
			return err
		}
		var inproc []float64
		for i := 0; i < nInproc; i++ {
			if r := h.run(twin, false, nil); r.ok {
				inproc = append(inproc, r.wall)
			}
		}
		if len(inproc) > 0 {
			layers["proc.vs_inproc"] = rep.E2E["wall_s"] / median(inproc)
		}
	}

	// The ladder: the workload's round-1 stream through each layer alone.
	// Only the Hamming workloads have the hamming.* floor.
	layers["hamming.map_pairs_s"], layers["hamming.reduce_values_s"] = 0, 0
	dir := filepath.Join(scratch, "ladder")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	env := &ladderEnv{tr: tr, root: tr.begin("ladder", -1), dir: dir, budget: inst.budget, out: layers}
	if o.quick {
		env.hostBytes = 4 * mib
	}
	err := inst.ladder(env)
	tr.end(env.root)
	if err != nil {
		return fmt.Errorf("%s: ladder: %w", w.name, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	rep.Breakdown = append(rep.Breakdown, breakdown(tr.spans, env.root)...)
	rep.TraceFile = filepath.Join(o.outDir, "trace_"+w.name+".json")
	return writeTrace(rep.TraceFile, tr.spans)
}

// breakdown renders one root span as its self time plus its direct
// children by name; self + covered == the root's duration by construction.
func breakdown(spans []span, root int) []string {
	selfAll := selfTimes(spans)
	r, self := spans[root], selfAll[root]
	lines := []string{fmt.Sprintf("%s %.4fs = self %.4fs + children %.4fs", r.Name,
		seconds(r.dur()), seconds(self), seconds(r.dur()-self))}
	type agg struct {
		n        int
		sum, own int64
	}
	byName := map[string]*agg{}
	var order []string
	for _, c := range spans {
		if c.Parent != root {
			continue
		}
		a := byName[c.Name]
		if a == nil {
			a = &agg{}
			byName[c.Name] = a
			order = append(order, c.Name)
		}
		a.n++
		a.sum += c.dur()
		a.own += selfAll[c.ID]
	}
	for _, name := range order {
		a := byName[name]
		lines = append(lines, fmt.Sprintf("  %-32s x%-3d %.4fs (self %.4fs)", name, a.n, seconds(a.sum), seconds(a.own)))
	}
	return lines
}

// ---- the process seen from outside: CPU, memory, children, scratch ----

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // cannot fail for these two selectors
	return ru
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// cpuSeconds is user+system CPU of this process and of the children it
// has waited for.
func cpuSeconds() float64 {
	self, kids := rusage(syscall.RUSAGE_SELF), rusage(syscall.RUSAGE_CHILDREN)
	return tvSeconds(self.Utime) + tvSeconds(self.Stime) + tvSeconds(kids.Utime) + tvSeconds(kids.Stime)
}

// vmHWMMB is a process's VmHWM, its lifetime peak resident set, in MB;
// 0 when /proc does not say.
func vmHWMMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is this process's lifetime peak resident set; ru_maxrss where
// /proc has none.
func peakRSSMB() float64 {
	if mb := vmHWMMB("self"); mb > 0 {
		return mb
	}
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024
}

// watchWorkers samples the VmHWM of this process's children ten times a
// second until the returned function is called, which reports the largest
// value seen. RUSAGE_CHILDREN cannot serve: a child's ru_maxrss starts at
// its parent's peak, because Go forks with a shared address space.
func watchWorkers() (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		var peak float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
				for _, pid := range childProcesses() {
					peak = max(peak, vmHWMMB(strconv.Itoa(pid)))
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// childProcesses lists the live processes whose parent is this one.
func childProcesses() []int {
	var pids []int
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, p := range stats {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...; comm may hold spaces and parentheses.
		s := string(data)
		f := strings.Fields(s[strings.LastIndex(s, ")")+1:])
		if len(f) < 2 || f[0] == "Z" {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == os.Getpid() {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
			pids = append(pids, pid)
		}
	}
	return pids
}

func killAll(pids []int) {
	for _, pid := range pids {
		_ = syscall.Kill(pid, syscall.SIGKILL) // already gone is fine
	}
}

// leftovers lists what a repetition left in the scratch tree; only the
// (empty) TMPDIR directory may stay.
func leftovers(scratch string) []string {
	var left []string
	_ = filepath.WalkDir(scratch, func(path string, _ os.DirEntry, err error) error {
		if err == nil && path != scratch && path != filepath.Join(scratch, "tmp") {
			left = append(left, strings.TrimPrefix(path, scratch+"/"))
		}
		return nil
	})
	return left
}
