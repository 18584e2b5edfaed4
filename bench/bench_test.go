package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/hamming"
	"repro/internal/mr"
	"repro/internal/obs"
)

// The test binary serves as the ProcMode worker of hamming_proc.
func TestMain(m *testing.M) {
	mr.MaybeProcWorker()
	os.Exit(m.Run())
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 1, 9, 8, 2, 7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestSpanUnionAndSelfTime(t *testing.T) {
	if got := unionNs([]obs.Interval{{Start: 20, End: 50}, {Start: 10, End: 30}, {Start: 60, End: 70}, {Start: 65, End: 68}}); got != 50 {
		t.Errorf("unionNs = %d, want 50", got)
	}
	if got := unionNs(nil); got != 0 {
		t.Errorf("unionNs(nil) = %d, want 0", got)
	}
	tr := &tracer{workload: "w"}
	root := tr.add("root", -1, "", 0, 100)
	a := tr.add("a", root, "lane 0", 10, 30)
	tr.add("b", root, "lane 1", 20, 50) // overlaps a on another lane
	tr.add("c", root, "", 60, 70)       // sequential
	tr.add("late", root, "", 95, 120)   // sticks out of the root: clipped to 5
	tr.add("a.child", a, "lane 0", 12, 18)
	self := selfTimes(tr.spans)
	// The root's children cover [10,50) + [60,70) + [95,100) = 55.
	if self[root] != 45 {
		t.Errorf("self(root) = %d, want 45", self[root])
	}
	if self[a] != 14 {
		t.Errorf("self(a) = %d, want 14", self[a])
	}
	// By construction a span's self time and the union of its children
	// add up to its duration, so a breakdown sums to its root.
	for _, s := range tr.spans {
		var kids []obs.Interval
		for _, c := range tr.spans {
			if c.Parent == s.ID {
				kids = append(kids, obs.Interval{Start: max(c.Start, s.Start), End: min(c.End, s.End)})
			}
		}
		if got := self[s.ID] + unionNs(kids); got != s.dur() {
			t.Errorf("span %s: self %d + children %d != duration %d", s.Name, self[s.ID], unionNs(kids), s.dur())
		}
	}
	lines := breakdown(tr.spans, root)
	if len(lines) != 5 || !strings.Contains(lines[0], "self") {
		t.Errorf("breakdown = %q", lines)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchmarkFileMatchesQuickRun runs every workload at -quick sizes and
// checks that BENCHMARK.json, the metric tables and what a run emits name
// exactly the same workloads and metrics, that no operation fails, and
// that each workload leaves a loadable trace whose roots are the traced
// repetition and the ladder.
func TestBenchmarkFileMatchesQuickRun(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	wantDefs := func(kind string, listed []benchmarkMetric, defs []metricDef) []string {
		var names []string
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark defines %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, l, d)
			}
			names = append(names, d.name)
		}
		sort.Strings(names)
		return names
	}
	e2eNames := wantDefs("end_to_end", bf.EndToEnd, endToEnd)
	layerNames := wantDefs("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	out := t.TempDir()
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q", i, bf.Workloads[i], w.name)
		}
		rep, err := measureInScratch(context.Background(), &workloads[i], options{seed: 1, quick: true, trace: true, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || rep.Attempted < 3 {
			t.Errorf("%s: attempted %d failed %d: %v", w.name, rep.Attempted, rep.Failed, rep.Failures)
		}
		if got := sortedKeys(rep.E2E); strings.Join(got, " ") != strings.Join(e2eNames, " ") {
			t.Errorf("%s: end-to-end metrics emitted %v, listed %v", w.name, got, e2eNames)
		}
		if got := sortedKeys(rep.Layers); strings.Join(got, " ") != strings.Join(layerNames, " ") {
			t.Errorf("%s: per-layer metrics emitted %v, listed %v", w.name, got, layerNames)
		}
		for _, d := range endToEnd {
			if !(rep.E2E[d.name] > 0) {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", w.name, d.name, rep.E2E[d.name])
			}
		}
		if gap := rep.Layers["core.r_gap"]; gap < 1 || (strings.HasPrefix(w.name, "hamming") && gap != 1) {
			t.Errorf("%s: core.r_gap = %v", w.name, gap)
		}

		data, err := os.ReadFile(rep.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Args struct{ Parent int }
			}
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace does not parse: %v", w.name, err)
		}
		var roots []string
		for _, ev := range trace.TraceEvents {
			if ev.Args.Parent == -1 {
				roots = append(roots, ev.Name)
			}
		}
		if strings.Join(roots, " ") != "traced_rep ladder" {
			t.Errorf("%s: trace roots = %v", w.name, roots)
		}
		if left, _ := os.ReadDir(out); len(left) != i+1 {
			t.Errorf("%s: output directory holds %d entries, want only %d traces", w.name, len(left), i+1)
		}
	}
}

// A run whose output differs from the reference must count as a failed
// operation, not as a timing.
func TestCorruptedOutputIsAFailedOperation(t *testing.T) {
	w := *workloadByName("hamming_mem")
	setup := w.setup
	w.setup = func(sz sizes, seed int64) (*instance, error) {
		inst, err := setup(sz, seed)
		if err != nil {
			return nil, err
		}
		run := inst.run
		inst.run = func(cfg mr.Config) (any, []mr.RoundMetrics, error) {
			out, rounds, err := run(cfg)
			if err == nil {
				ps := out.([]hamming.Pair)
				ps[len(ps)/2].Y ^= 1 << 5
			}
			return out, rounds, err
		}
		return inst, nil
	}
	rep, err := measureInScratch(context.Background(), &w, options{seed: 1, quick: true, outDir: t.TempDir()})
	if err == nil {
		t.Error("a workload whose every repetition is wrong reported no error")
	}
	if rep == nil || rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("report = %+v, want every attempted operation failed", rep)
	}
	if !strings.Contains(strings.Join(rep.Failures, " "), "checksum") {
		t.Errorf("failures do not name the checksum: %v", rep.Failures)
	}
}
