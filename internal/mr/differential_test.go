package mr

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Differential testing of the whole data path: for randomized
// workloads — random key/value types, partition counts, memory
// budgets, worker counts, chunk sizes, combiner on or off, batch
// reduce path on or off — the executor's outputs and logical metrics
// must be identical to a naive single-map reference executor, and
// identical with disk spill forced on versus off. The physical profile (partition placement,
// makespan, spill boundaries) is allowed to vary; the paper's
// quantities are not.

// refResult is what the naive reference executor produces: every map
// ran in input order under one goroutine, groups reduced in canonical
// key order.
type refResult[O any] struct {
	outputs      []O
	pairsEmitted int64
	reducers     int64
	maxQ         int64
}

func referenceRun[I any, K comparable, V, O any](j *Job[I, K, V, O], inputs []I) refResult[O] {
	groups := make(map[K][]V)
	var res refResult[O]
	for _, in := range inputs {
		j.Map(in, func(k K, v V) {
			groups[k] = append(groups[k], v)
			res.pairsEmitted++
		})
	}
	res.reducers = int64(len(groups))
	for _, k := range sortedKeys(groups) {
		vs := groups[k]
		if q := int64(len(vs)); q > res.maxQ {
			res.maxQ = q
		}
		j.Reduce(k, vs, func(o O) { res.outputs = append(res.outputs, o) })
	}
	return res
}

// randomConfig draws execution parameters that must not change
// results.
func randomConfig(rng *rand.Rand) Config {
	partitions := []int{0, 1, 2, 4, 8, 32}[rng.Intn(6)]
	return Config{
		Workers:    1 + rng.Intn(4),
		MapChunk:   rng.Intn(6), // 0 = automatic
		Partitions: partitions,
	}
}

// checkDifferential runs one job family through the three-way
// comparison: reference vs executor, and spill-off vs spill-on.
// It returns the bytes spilled so callers can assert the spill path
// was genuinely exercised across trials.
func checkDifferential[I any, K comparable, V, O any](
	t *testing.T, trial string,
	mk func(cfg Config) *Job[I, K, V, O],
	inputs []I, combiner bool, rng *rand.Rand, spillDir string,
) int64 {
	t.Helper()
	cfg := randomConfig(rng)
	ref := referenceRun(mk(cfg), inputs)

	out, met, err := mk(cfg).Run(inputs)
	if err != nil {
		t.Fatalf("%s: executor: %v", trial, err)
	}
	if !reflect.DeepEqual(out, ref.outputs) {
		t.Fatalf("%s: outputs diverge from reference\ngot  %v\nwant %v", trial, out, ref.outputs)
	}
	if met.PairsEmitted != ref.pairsEmitted || met.Reducers != ref.reducers {
		t.Fatalf("%s: logical metrics diverge: emitted %d/%d reducers %d/%d",
			trial, met.PairsEmitted, ref.pairsEmitted, met.Reducers, ref.reducers)
	}
	if met.ReplicationRate() != 0 && met.MapInputs != int64(len(inputs)) {
		t.Fatalf("%s: MapInputs = %d, want %d", trial, met.MapInputs, len(inputs))
	}
	if !combiner {
		// Without a combiner the shuffle is the raw emission stream.
		if met.PairsShuffled != ref.pairsEmitted || met.MaxReducerInput != ref.maxQ {
			t.Fatalf("%s: shuffled %d (want %d), max q %d (want %d)",
				trial, met.PairsShuffled, ref.pairsEmitted, met.MaxReducerInput, ref.maxQ)
		}
	}

	// Spill forced on: identical outputs and logical metrics.
	spillCfg := cfg
	spillCfg.MemoryBudget = []int{1, 2, 7, 16}[rng.Intn(4)]
	spillCfg.SpillDir = spillDir
	outS, metS, err := mk(spillCfg).Run(inputs)
	if err != nil {
		t.Fatalf("%s: spill run: %v", trial, err)
	}
	if !reflect.DeepEqual(outS, out) {
		t.Fatalf("%s: spill-on outputs diverge\ngot  %v\nwant %v", trial, outS, out)
	}
	if metS.PairsEmitted != met.PairsEmitted || metS.PairsShuffled != met.PairsShuffled ||
		metS.Reducers != met.Reducers || metS.MaxReducerInput != met.MaxReducerInput ||
		metS.ReplicationRate() != met.ReplicationRate() {
		t.Fatalf("%s: spill-on logical metrics diverge\noff %+v\non  %+v", trial, met, metS)
	}
	if metS.MaxLivePairs > spillCfg.MemoryBudget {
		t.Fatalf("%s: MaxLivePairs %d exceeds budget %d", trial, metS.MaxLivePairs, spillCfg.MemoryBudget)
	}

	// Range-split reduce on the spilled config: cutting heavy partitions
	// into concurrent key-range units — as many as the plan's range rule
	// derives from a redrawn worker count, two even for one worker —
	// must change nothing observable: same outputs in the same order,
	// same logical metrics.
	splitCfg := spillCfg
	splitCfg.ReduceSplitPairs = 1 + rng.Intn(8)
	splitCfg.Workers = 1 + rng.Intn(4)
	outR, metR, err := mk(splitCfg).Run(inputs)
	if err != nil {
		t.Fatalf("%s: range-split run: %v", trial, err)
	}
	if !reflect.DeepEqual(outR, outS) {
		t.Fatalf("%s: range-split outputs diverge (split=%d workers=%d)\ngot  %v\nwant %v",
			trial, splitCfg.ReduceSplitPairs, splitCfg.Workers, outR, outS)
	}
	if metR.PairsEmitted != metS.PairsEmitted || metR.PairsShuffled != metS.PairsShuffled ||
		metR.Reducers != metS.Reducers || metR.MaxReducerInput != metS.MaxReducerInput {
		t.Fatalf("%s: range-split logical metrics diverge\noff %+v\non  %+v", trial, metS, metR)
	}

	// Batch reduce path, randomly toggled: the arena-reuse contract must
	// change nothing observable, spill off and on. (The reduce funcs in
	// this suite render their values immediately, so they qualify.)
	if rng.Intn(2) == 0 {
		for variant, c := range map[string]Config{"spill-off": cfg, "spill-on": spillCfg} {
			jb := mk(c)
			jb.ReduceBatch = jb.Reduce
			outB, metB, err := jb.Run(inputs)
			if err != nil {
				t.Fatalf("%s: batch %s run: %v", trial, variant, err)
			}
			if !reflect.DeepEqual(outB, out) {
				t.Fatalf("%s: batch %s outputs diverge from per-value path\ngot  %v\nwant %v",
					trial, variant, outB, out)
			}
			if metB.PairsEmitted != met.PairsEmitted || metB.Reducers != met.Reducers ||
				metB.MaxReducerInput != met.MaxReducerInput {
				t.Fatalf("%s: batch %s logical metrics diverge\ngot  %+v\nwant %+v",
					trial, variant, metB, met)
			}
		}
	}
	return metS.BytesSpilled
}

// The batch-reduce twins of the registered ProcMode jobs: the same
// functions under the no-retain contract.
var (
	procOrderKeysBatch = &Job[int, orderKey, int, string]{
		Name: "mr-proc-order-keys-batch", Map: procOrderKeys.Map, ReduceBatch: procOrderKeys.Reduce,
	}
	procWordcountBatch = &Job[string, string, int, procWC]{
		Name: "mr-proc-wordcount-batch", Map: procWordcount.Map, Combine: procWordcount.Combine, ReduceBatch: procWordcount.Reduce,
	}
)

// procZeroFields are the engine.Metrics fields a ProcMode round leaves
// zero, as the engine.Metrics doc lists them: the profile of the
// in-process exchange, which a multi-process round does not have.
var procZeroFields = []string{
	"Makespan", "IdealMakespan", "ReduceRangeSkew",
	"SpillEvents", "SpilledPairs", "RunsMerged", "SwapBytes", "BytesReclaimed", "MaxLivePairs",
	"SpillOverlapNs", "FinishDrainNs",
}

// procPhysicalFields are filled by both executors with quantities of
// their own data paths, so they differ by design; each with its reason.
var procPhysicalFields = map[string]string{
	"BytesSpilled":      "spill-file bytes in process, spool bytes across processes: each executor seals its own shuffles",
	"IndexBytesSpilled": "0 in process, whose runs keep their index resident; spool sections carry a footer",
	"DiskBytesRead":     "read back from each executor's own runs",
	"PeakResidentPairs": "the whole round's peak in process, the worst map or reduce attempt's across processes",
}

// procCombineFields depend on where seals fall when the round has a
// combiner, so they are compared only without one; each with its reason.
var procCombineFields = map[string]string{
	"PairsShuffled":    "in process a seal combines the values of every map task sharing the run; a worker's shuffle holds one task's",
	"MaxReducerInput":  "a key's group holds one value per combined run, and runs are cut by seals",
	"ReducerInputLog2": "the distribution of those group sizes",
	"Partitions":       "each partition's pairs and largest group, as above",
	"ReduceRanges":     "cut by the partitions' indexed pair loads, which the combined runs set",
}

// checkExecutorsAgree compares every engine.Metrics field of a ProcMode
// round (proc) with the in-process round of the same job (inproc),
// shuffle.Stats' promoted fields included: the ProcMode-zero fields
// must be zero, the physical fields are skipped, the combiner-dependent
// ones are compared only without a combiner, and every other field — a
// new one included — must be equal. Only the in-process schedule places
// partitions on workers, so ProcMode's Partitions must hold Worker -1
// and are compared with the in-process ones at that Worker.
func checkExecutorsAgree(t *testing.T, trial string, proc, inproc Metrics, combiner bool) {
	t.Helper()
	typ := reflect.TypeOf(proc)
	listed := slices.Concat(procZeroFields, slices.Collect(maps.Keys(procPhysicalFields)), slices.Collect(maps.Keys(procCombineFields)))
	for _, name := range listed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Fatalf("engine.Metrics has no field %s", name)
		}
	}
	inproc.Partitions = slices.Clone(inproc.Partitions)
	for p := range inproc.Partitions {
		inproc.Partitions[p].Worker = -1
	}
	pv, iv := reflect.ValueOf(proc), reflect.ValueOf(inproc)
	for _, f := range reflect.VisibleFields(typ) {
		if f.Anonymous {
			continue // shuffle.Stats: its fields are visited one by one
		}
		name := f.Name
		p, q := pv.FieldByIndex(f.Index).Interface(), iv.FieldByIndex(f.Index).Interface()
		switch {
		case slices.Contains(procZeroFields, name):
			if !pv.FieldByIndex(f.Index).IsZero() {
				t.Errorf("%s: ProcMode fills %s = %v, which it leaves zero", trial, name, p)
			}
		case procPhysicalFields[name] != "", combiner && procCombineFields[name] != "":
		case !reflect.DeepEqual(p, q):
			t.Errorf("%s: %s: ProcMode %v, in process %v", trial, name, p, q)
		}
	}
}

// checkProcDifferential is the ProcMode leg of the differential: the
// job run across worker processes — every map task spilling mid-task
// under a tiny budget, reduce workers reading whole partitions
// (splitPairs 0) or range-split ones — must equal the in-process
// engine's spilled run of the same job on the same inputs, output for
// output and in every metric both fill (checkExecutorsAgree). It
// returns the proc run's range count and whether some map task
// committed a second section of one partition (Seq >= 1: a mid-task
// spill).
func checkProcDifferential[I any, K comparable, V, O any](t *testing.T, job *Job[I, K, V, O], inputs []I, splitPairs int) (ranges int64, midTaskSpill bool) {
	t.Helper()
	trial := fmt.Sprintf("%s/split%d", job.Name, splitPairs)
	cfg := Config{Workers: 2, Partitions: 4, MemoryBudget: 8, ReduceSplitPairs: splitPairs}

	inproc := *job
	inproc.Config = cfg
	inproc.Config.SpillDir = t.TempDir()
	want, wantMet, err := inproc.Run(inputs)
	if err != nil {
		t.Fatalf("%s: in-process run: %v", trial, err)
	}
	if wantMet.BytesSpilled == 0 {
		t.Fatalf("%s: in-process run never spilled; the comparison would skip the disk path", trial)
	}

	pj := *job
	pj.Config = cfg
	pj.Config.ProcMode, pj.Config.ProcDir = true, t.TempDir()
	got, met, err := pj.Run(inputs)
	if err != nil {
		t.Fatalf("%s: ProcMode run: %v", trial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ProcMode outputs diverge from the in-process engine's\ngot  %v\nwant %v", trial, got, want)
	}
	checkExecutorsAgree(t, trial, met, wantMet, job.Combine != nil)
	manifests, err := filepath.Glob(filepath.Join(pj.Config.ProcDir, "manifest-*.log"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("%s: no worker manifests in ProcDir: %v", trial, err)
	}
	for _, m := range manifests {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		midTaskSpill = midTaskSpill || strings.Contains(string(data), `"Seq":1`)
	}
	return met.ReduceRanges, midTaskSpill
}

// TestDifferentialProcMode: ProcMode ≡ in-process, across spill ×
// range-split (MRPROC_SPLITPAIRS's two CI values) × batch reduce ×
// combiner, with map tasks that spill mid-task: every registered
// differential job, in outputs and in every engine.Metrics field both
// executors fill.
func TestDifferentialProcMode(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ints := make([]int, 400)
	for i := range ints {
		ints[i] = rng.Intn(10000)
	}
	lines := procLines(150)
	for _, split := range []int{0, 48} {
		var ranges int64
		spilled := true
		for _, job := range []*Job[int, orderKey, int, string]{procOrderKeys, procOrderKeysBatch} {
			r, s := checkProcDifferential(t, job, ints, split)
			ranges, spilled = ranges+r, spilled && s
		}
		for _, job := range []*Job[string, string, int, procWC]{procWordcount, procWordcountBatch, procWordcountNoCombine} {
			r, s := checkProcDifferential(t, job, lines, split)
			ranges, spilled = ranges+r, spilled && s
		}
		if !spilled {
			t.Errorf("split %d: a job ran with no section of Seq >= 1; its map tasks never spilled mid-task", split)
		}
		if (split > 0) != (ranges > 0) {
			t.Errorf("split %d: proc reduce workers cut %d ranges", split, ranges)
		}
	}
}

// TestRangeSplitSkewedAndFaulted drives the split path hard on a
// workload with one dominant key: the hot partition must actually be
// cut into range units (ReduceRanges > 0), outputs must match the
// unsplit run exactly, and deterministic fault injection must retry
// range units to the same outputs.
func TestRangeSplitSkewedAndFaulted(t *testing.T) {
	inputs := make([]int, 2000)
	for i := range inputs {
		inputs[i] = i
	}
	mk := func(cfg Config) *Job[int, string, int, string] {
		return &Job[int, string, int, string]{
			Name: "range-skew",
			Map: func(x int, emit func(string, int)) {
				emit("hot", x) // every input hits one key
				emit(fmt.Sprintf("k%02d", x%50), x)
			},
			Reduce: func(k string, vs []int, emit func(string)) {
				emit(fmt.Sprint(k, len(vs), vs[0], vs[len(vs)-1]))
			},
			Config: cfg,
		}
	}
	base := Config{Workers: 4, Partitions: 4, MemoryBudget: 32, SpillDir: t.TempDir()}
	want, wantMet, err := mk(base).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	split := base
	split.ReduceSplitPairs = 64
	got, met, err := mk(split).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("range-split outputs diverge from whole-partition run")
	}
	if met.ReduceRanges == 0 {
		t.Fatal("hot partition was not split; ReduceRanges = 0")
	}
	if met.ReduceRangeSkew < 1 {
		t.Fatalf("ReduceRangeSkew = %v, want >= 1 when ranges exist", met.ReduceRangeSkew)
	}
	if met.Reducers != wantMet.Reducers || met.PairsShuffled != wantMet.PairsShuffled {
		t.Fatalf("logical metrics diverge: %+v vs %+v", met, wantMet)
	}

	faulted := split
	faulted.FailureEveryN = 2
	faulted.MaxRetries = 3
	gotF, metF, err := mk(faulted).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotF, want) {
		t.Fatal("range-split outputs diverge under fault injection")
	}
	if metF.ReduceRetries == 0 {
		t.Fatal("fault injection never retried a reduce unit")
	}
}

func TestDifferentialStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	dir := t.TempDir()
	var spilled int64
	for trial := 0; trial < 12; trial++ {
		dom := 1 + rng.Intn(30)
		inputs := make([]int, rng.Intn(240))
		for i := range inputs {
			inputs[i] = rng.Intn(1000)
		}
		mk := func(cfg Config) *Job[int, string, int, string] {
			return &Job[int, string, int, string]{
				Name: "diff-string",
				Map: func(x int, emit func(string, int)) {
					for j := 0; j <= x%3; j++ {
						emit(fmt.Sprintf("k%02d", (x+j)%dom), x*10+j)
					}
				},
				// Order-sensitive reduce: catches any value reordering.
				Reduce: func(k string, vs []int, emit func(string)) {
					emit(fmt.Sprint(k, vs))
				},
				Config: cfg,
			}
		}
		spilled += checkDifferential(t, fmt.Sprintf("string/%d", trial), mk, inputs, false, rng, dir)
	}
	if spilled == 0 {
		t.Error("no trial spilled to disk; the differential never exercised the external path")
	}
}

func TestDifferentialIntKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	dir := t.TempDir()
	var spilled int64
	for trial := 0; trial < 12; trial++ {
		dom := int64(1 + rng.Intn(40))
		inputs := make([]int64, rng.Intn(240))
		for i := range inputs {
			inputs[i] = rng.Int63n(100000)
		}
		mk := func(cfg Config) *Job[int64, int64, string, string] {
			return &Job[int64, int64, string, string]{
				Name: "diff-int",
				Map: func(x int64, emit func(int64, string)) {
					emit(x%dom, fmt.Sprintf("v%d", x))
					if x%2 == 0 {
						emit((x+1)%dom, fmt.Sprintf("w%d", x))
					}
				},
				Reduce: func(k int64, vs []string, emit func(string)) {
					emit(fmt.Sprint(k, ":", vs))
				},
				Config: cfg,
			}
		}
		spilled += checkDifferential(t, fmt.Sprintf("int64/%d", trial), mk, inputs, false, rng, dir)
	}
	if spilled == 0 {
		t.Error("no trial spilled to disk")
	}
}

func TestDifferentialStructKeysWithCombiner(t *testing.T) {
	type edge struct{ U, V int }
	rng := rand.New(rand.NewSource(303))
	dir := t.TempDir()
	var spilled int64
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		inputs := make([]int, rng.Intn(240))
		for i := range inputs {
			inputs[i] = rng.Intn(10000)
		}
		combine := trial%2 == 0
		mk := func(cfg Config) *Job[int, edge, float64, string] {
			j := &Job[int, edge, float64, string]{
				Name: "diff-struct",
				Map: func(x int, emit func(edge, float64)) {
					emit(edge{x % n, (x / n) % n}, float64(x)/4)
				},
				// Order-insensitive reduce so the combiner is transparent.
				Reduce: func(k edge, vs []float64, emit func(string)) {
					var sum float64
					for _, v := range vs {
						sum += v
					}
					emit(fmt.Sprintf("%v=%.2f/%d", k, sum, len(vs)))
				},
				Config: cfg,
			}
			if combine {
				j.Combine = func(_ edge, vs []float64) []float64 {
					var sum float64
					for _, v := range vs {
						sum += v
					}
					return []float64{sum}
				}
			}
			return j
		}
		if combine {
			// The combiner changes group sizes but not sums; the reduce
			// output above folds len(vs), so compare combiner runs only
			// against themselves (spill on/off), not the reference.
			mkSum := func(cfg Config) *Job[int, edge, float64, string] {
				j := mk(cfg)
				j.Reduce = func(k edge, vs []float64, emit func(string)) {
					var sum float64
					for _, v := range vs {
						sum += v
					}
					emit(fmt.Sprintf("%v=%.2f", k, sum))
				}
				return j
			}
			cfg := randomConfig(rng)
			out, met, err := mkSum(cfg).Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			noCombine := mkSum(cfg)
			noCombine.Combine = nil
			ref := referenceRun(noCombine, inputs)
			if !reflect.DeepEqual(out, ref.outputs) {
				t.Fatalf("combiner changed results:\ngot  %v\nwant %v", out, ref.outputs)
			}
			spillCfg := cfg
			spillCfg.MemoryBudget = 1 + rng.Intn(8)
			spillCfg.SpillDir = dir
			outS, metS, err := mkSum(spillCfg).Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outS, out) {
				t.Fatalf("spill-on combiner outputs diverge")
			}
			if metS.PairsEmitted != met.PairsEmitted || metS.Reducers != met.Reducers {
				t.Fatalf("spill-on combiner metrics diverge: %+v vs %+v", metS, met)
			}
			// Batch reduce with the combiner pushed down, spill on and
			// off: same outputs again.
			for _, c := range []Config{cfg, spillCfg} {
				jb := mkSum(c)
				jb.ReduceBatch = jb.Reduce
				outB, _, err := jb.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(outB, out) {
					t.Fatalf("batch+combiner outputs diverge\ngot  %v\nwant %v", outB, out)
				}
			}
			spilled += metS.BytesSpilled
			continue
		}
		spilled += checkDifferential(t, fmt.Sprintf("struct/%d", trial), mk, inputs, false, rng, dir)
	}
	if spilled == 0 {
		t.Error("no trial spilled to disk")
	}
}
