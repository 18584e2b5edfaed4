package mr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/shuffle"
)

// Toy versions of the paper's multi-round pipelines, for checking that a
// pipeline's in-place hand-off between rounds changes nothing: a
// triangle census (find triangles, count per node, histogram), the
// two-phase matrix multiply of Section 6.3, and join, aggregate, top-k.
// The jobs are package variables so TestMain can register them for
// ProcMode; a test copies one and sets its Config.

type hEdge struct{ U, V int } // U < V
type hTri struct{ U, V, W int }
type hNodeCount struct {
	Node      int
	Triangles int64
}
type hBin struct{ Triangles, Nodes int64 }

const hBuckets = 3

func sumInt64(_ int, vs []int64) []int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return []int64{s}
}

// hFindTriangles sends every edge to every bucket; bucket c emits, in
// order, the triangles whose smallest node falls in it.
var hFindTriangles = &Job[hEdge, int, hEdge, hTri]{
	Name: "handoff-find-triangles",
	Map: func(e hEdge, emit func(int, hEdge)) {
		for c := range hBuckets {
			emit(c, e)
		}
	},
	Reduce: func(c int, es []hEdge, emit func(hTri)) {
		es = slices.Clone(es)
		slices.SortFunc(es, func(a, b hEdge) int { return a.U*1000 + a.V - b.U*1000 - b.V })
		has := map[hEdge]bool{}
		for _, e := range es {
			has[e] = true
		}
		for i, a := range es {
			for _, b := range es[i+1:] {
				if a.U%hBuckets == c && b.U == a.U && has[hEdge{a.V, b.V}] {
					emit(hTri{a.U, a.V, b.V})
				}
			}
		}
	},
}

var hPerNode = &Job[hTri, int, int64, hNodeCount]{
	Name: "handoff-per-node",
	Map: func(t hTri, emit func(int, int64)) {
		emit(t.U, 1)
		emit(t.V, 1)
		emit(t.W, 1)
	},
	Combine: sumInt64,
	Reduce: func(n int, vs []int64, emit func(hNodeCount)) {
		emit(hNodeCount{n, sumInt64(n, vs)[0]})
	},
}

var hHistogram = &Job[hNodeCount, int64, int64, hBin]{
	Name:    "handoff-histogram",
	Map:     func(nc hNodeCount, emit func(int64, int64)) { emit(nc.Triangles, 1) },
	Combine: func(_ int64, vs []int64) []int64 { return sumInt64(0, vs) },
	Reduce: func(k int64, vs []int64, emit func(hBin)) {
		emit(hBin{k, sumInt64(0, vs)[0]})
	},
}

// hEntry is a matrix element: Mat 0 is R[Row][Col], Mat 1 is S.
type hEntry struct {
	Mat      int8
	Row, Col int
	Val      float64
}
type hPartial struct {
	I, K int
	V    float64
}

const hN = 7

var hMultiply = &Job[hEntry, int, hEntry, hPartial]{
	Name: "handoff-multiply",
	Map: func(e hEntry, emit func(int, hEntry)) {
		if e.Mat == 0 {
			emit(e.Col, e)
		} else {
			emit(e.Row, e)
		}
	},
	Reduce: func(_ int, es []hEntry, emit func(hPartial)) {
		for _, r := range es {
			for _, s := range es {
				if r.Mat == 0 && s.Mat == 1 {
					emit(hPartial{r.Row, s.Col, r.Val * s.Val})
				}
			}
		}
	},
}

var hSum = &Job[hPartial, int, float64, hPartial]{
	Name: "handoff-sum",
	Map:  func(p hPartial, emit func(int, float64)) { emit(p.I*hN+p.K, p.V) },
	Reduce: func(ik int, vs []float64, emit func(hPartial)) {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		emit(hPartial{ik / hN, ik % hN, s})
	},
}

// hTagged is an R(A,B) tuple (X=A, Y=B) or an S(B,C) tuple (X=B, Y=C).
type hTagged struct {
	FromR bool
	X, Y  int
}
type hAC struct {
	A int
	C int64
}
type hGroup struct {
	A   int
	Sum int64
}

const hTopN = 4

var hJoin = &Job[hTagged, int, hTagged, hAC]{
	Name: "handoff-join",
	Map: func(t hTagged, emit func(int, hTagged)) {
		if t.FromR {
			emit(t.Y, t)
		} else {
			emit(t.X, t)
		}
	},
	Reduce: func(_ int, ts []hTagged, emit func(hAC)) {
		var c int64
		for _, t := range ts {
			if !t.FromR {
				c += int64(t.Y)
			}
		}
		for _, t := range ts {
			if t.FromR {
				emit(hAC{t.X, c})
			}
		}
	},
}

var hAggregate = &Job[hAC, int, int64, hGroup]{
	Name:    "handoff-aggregate",
	Map:     func(r hAC, emit func(int, int64)) { emit(r.A, r.C) },
	Combine: sumInt64,
	Reduce: func(a int, vs []int64, emit func(hGroup)) {
		emit(hGroup{a, sumInt64(a, vs)[0]})
	},
}

// hTop keeps the n best groups: descending sum, ties by ascending A.
func hTop(gs []hGroup) []hGroup {
	gs = slices.Clone(gs)
	slices.SortFunc(gs, func(a, b hGroup) int {
		if a.Sum != b.Sum {
			return int(b.Sum - a.Sum)
		}
		return a.A - b.A
	})
	return gs[:min(len(gs), hTopN)]
}

var hTopK = &Job[hGroup, int, hGroup, hGroup]{
	Name:    "handoff-top-k",
	Map:     func(g hGroup, emit func(int, hGroup)) { emit(0, g) },
	Combine: func(_ int, gs []hGroup) []hGroup { return hTop(gs) },
	Reduce: func(_ int, gs []hGroup, emit func(hGroup)) {
		for _, g := range hTop(gs) {
			emit(g)
		}
	},
}

// stage is one round of a test pipeline: its Round for RunPipeline, and
// its Job.Run over a slice for the stepwise reference.
type stage struct {
	round Round
	run   func(in any) (any, Metrics, error)
}

// stageOf copies j with the given Config into a stage.
func stageOf[I any, K comparable, V, O any](j *Job[I, K, V, O], cfg Config) stage {
	c := *j
	c.Config = cfg
	return stage{RoundOf(&c), func(in any) (any, Metrics, error) { return c.Run(in.([]I)) }}
}

// toyPipelines returns the three pipelines' inputs and stages, round i
// configured by cfg(i).
func toyPipelines(cfg func(round int) Config) map[string]func() (any, []stage) {
	rng := rand.New(rand.NewSource(36))
	var edges []hEdge
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, hEdge{u, v})
			}
		}
	}
	var entries []hEntry
	for m := range 2 {
		for i := range hN {
			for j := range hN {
				entries = append(entries, hEntry{int8(m), i, j, float64(rng.Intn(19)-9) / 4})
			}
		}
	}
	var tuples []hTagged
	for range 120 {
		tuples = append(tuples, hTagged{true, rng.Intn(30), rng.Intn(15)}, hTagged{false, rng.Intn(15), rng.Intn(9)})
	}
	return map[string]func() (any, []stage){
		"census": func() (any, []stage) {
			return edges, []stage{stageOf(hFindTriangles, cfg(0)), stageOf(hPerNode, cfg(1)), stageOf(hHistogram, cfg(2))}
		},
		"matmul": func() (any, []stage) {
			return entries, []stage{stageOf(hMultiply, cfg(0)), stageOf(hSum, cfg(1))}
		},
		"join-aggregate-top-k": func() (any, []stage) {
			return tuples, []stage{stageOf(hJoin, cfg(0)), stageOf(hAggregate, cfg(1)), stageOf(hTopK, cfg(2))}
		},
	}
}

// metricsDiff names the fields in which a and b differ, with both
// values, leaving out the ones that depend on timing: the overlap and
// drain times, the resident high-water mark, the spill bytes deleted
// mid-round, and SwapBytes (0 since the map side stopped swapping).
func metricsDiff(a, b Metrics) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var d string
	for _, f := range reflect.VisibleFields(va.Type()) {
		switch name := f.Name; name {
		case "Stats": // embedded: its fields are visited one by one
		case "SpillOverlapNs", "FinishDrainNs", "PeakResidentPairs", "SwapBytes", "BytesReclaimed":
		default:
			if x, y := va.FieldByIndex(f.Index).Interface(), vb.FieldByIndex(f.Index).Interface(); !reflect.DeepEqual(x, y) {
				d += fmt.Sprintf("\n%s: %v, %v", name, x, y)
			}
		}
	}
	return d
}

// TestPipelineMatchesStepwise: RunPipeline's output and every round's
// Metrics equal those of running each round's Job.Run on the previous
// round's output slice — in memory, range-split, spilling, under
// injected faults, and with an in-process round feeding a ProcMode
// round. Traced, an all-in-process pipeline copies only its last
// round's outputs (one output-assemble span); one with a ProcMode round
// also copies the round before it.
func TestPipelineMatchesStepwise(t *testing.T) {
	base := Config{Workers: 3, Partitions: 4, MapChunk: 5}
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T, round int) Config
	}{
		{"memory", func(*testing.T, int) Config { return base }},
		{"split", func(*testing.T, int) Config {
			c := base
			c.ReduceSplitPairs = 16
			return c
		}},
		{"spill", func(t *testing.T, _ int) Config {
			c := base
			c.MemoryBudget, c.SpillDir = 8, t.TempDir()
			return c
		}},
		{"faults", func(*testing.T, int) Config {
			c := base
			c.FailureEveryN = 3
			return c
		}},
		{"proc", func(_ *testing.T, round int) Config {
			if round == 1 {
				return Config{Workers: 2, Partitions: 4, ProcMode: true}
			}
			return base
		}},
	} {
		for name, build := range toyPipelines(func(round int) Config { return tc.cfg(t, round) }) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				in, stages := build()
				rounds := make([]Round, len(stages))
				for i, s := range stages {
					rounds[i] = s.round
				}
				got, pipe, err := RunPipeline(in, rounds...)
				if err != nil {
					t.Fatal(err)
				}
				cur := in
				for i, s := range stages {
					out, met, err := s.run(cur)
					if err != nil {
						t.Fatalf("round %d stepwise: %v", i, err)
					}
					if d := metricsDiff(pipe.Rounds[i].Metrics, met); d != "" {
						t.Errorf("round %d metrics differ (pipeline, stepwise):%s", i, d)
					}
					if met.Outputs == 0 {
						t.Errorf("round %d produced no outputs; the case is vacuous", i)
					}
					cur = out
				}
				if !reflect.DeepEqual(got, cur) {
					t.Errorf("pipeline output differs from stepwise:\n got %v\nwant %v", got, cur)
				}
			})
		}
	}

	for _, tc := range []struct {
		name string
		proc bool
		want int
	}{{"in-process", false, 1}, {"proc", true, 2}} {
		rec := obs.NewRecorder(0)
		cfg := func(round int) Config {
			if tc.proc && round == 1 {
				return Config{Workers: 2, Partitions: 4, ProcMode: true}
			}
			c := base
			c.Recorder = rec
			return c
		}
		in, stages := toyPipelines(cfg)["census"]()
		if _, _, err := RunPipeline(in, stages[0].round, stages[1].round, stages[2].round); err != nil {
			t.Fatal(err)
		}
		if n := countOps(rec, obs.OpOutputAssemble); n != tc.want {
			t.Errorf("%s census: %d output-assemble spans, want %d", tc.name, n, tc.want)
		}
	}
}

// countOps counts the spans of op the recorder closed.
func countOps(rec *obs.Recorder, op obs.Op) int {
	n := 0
	for _, ls := range rec.Snapshot() {
		for _, ev := range ls.Events {
			if ev.Op == op && ev.Kind == obs.KindEnd {
				n++
			}
		}
	}
	return n
}

// TestCombineRoundDeterministic: a combine round that seals reports the
// same PairsShuffled, BytesSpilled and SpillEvents on every run. The
// map-side combine emits its keys in the order the task first emitted
// them; emitted in map iteration order, the seal points and so these
// counts changed from run to run. Key placement is pinned, so the
// counts are also the same in every process, on every schedule.
func TestCombineRoundDeterministic(t *testing.T) {
	defer shuffle.WithSeed(36)()
	inputs := make([]int, 20000)
	for i := range inputs {
		inputs[i] = i
	}
	sum := func(_ int, vs []int) []int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return []int{s}
	}
	var first []string
	var firstMet Metrics
	for run := range 6 {
		job := &Job[int, int, int, string]{
			Name: "combine-seal",
			Map: func(x int, emit func(int, int)) {
				emit(x%5000, 1)
				emit((x*7)%5000, 1)
			},
			Combine: sum,
			Reduce: func(k int, vs []int, emit func(string)) {
				emit(fmt.Sprint(k, sum(k, vs)[0]))
			},
			Config: Config{Workers: 2, Partitions: 4, MemoryBudget: 256, SpillDir: t.TempDir()},
		}
		outs, met, err := job.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if met.SpillEvents == 0 || met.BytesSpilled == 0 {
			t.Fatalf("the round never sealed to disk: %+v", met)
		}
		if run == 0 {
			first, firstMet = outs, met
			continue
		}
		if !slices.Equal(outs, first) {
			t.Fatalf("run %d: outputs differ from run 0", run)
		}
		if met.PairsShuffled != firstMet.PairsShuffled || met.BytesSpilled != firstMet.BytesSpilled ||
			met.SpillEvents != firstMet.SpillEvents || met.SpilledPairs != firstMet.SpilledPairs ||
			met.MaxReducerInput != firstMet.MaxReducerInput {
			t.Errorf("run %d: shuffled %d, spilled %d B in %d events (%d pairs), q %d; run 0: %d, %d B in %d (%d), q %d",
				run, met.PairsShuffled, met.BytesSpilled, met.SpillEvents, met.SpilledPairs, met.MaxReducerInput,
				firstMet.PairsShuffled, firstMet.BytesSpilled, firstMet.SpillEvents, firstMet.SpilledPairs, firstMet.MaxReducerInput)
		}
	}
	t.Logf("PairsShuffled %d, BytesSpilled %d, SpillEvents %d", firstMet.PairsShuffled, firstMet.BytesSpilled, firstMet.SpillEvents)
}
