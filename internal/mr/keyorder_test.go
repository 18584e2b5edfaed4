package mr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/shuffle"
)

// Jobs for the key-plan tests. They are package-level (and registered in
// TestMain) because ProcMode workers re-execute this binary and must
// find them by name.

type zeroOut struct {
	Key string
	N   int
}

// floatOfInput maps inputs onto a few float keys, among them both
// zeros: +0.0 and -0.0 are == and must be one reducer.
func floatOfInput(x int) float64 {
	switch x % 4 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return float64(x%5) / 2
	}
}

var procFloatKeys = &Job[int, float64, int, zeroOut]{
	Name: "mr-proc-float-keys",
	Map:  func(x int, emit func(float64, int)) { emit(floatOfInput(x), x) },
	Reduce: func(k float64, vs []int, emit func(zeroOut)) {
		emit(zeroOut{fmt.Sprint(k + 0), len(vs)})
	},
}

type floatCell struct {
	ID int
	F  float32
}

var procFloatStructKeys = &Job[int, floatCell, int, zeroOut]{
	Name: "mr-proc-float-struct-keys",
	Map:  func(x int, emit func(floatCell, int)) { emit(floatCell{x % 3, float32(floatOfInput(x))}, x) },
	Reduce: func(k floatCell, vs []int, emit func(zeroOut)) {
		emit(zeroOut{fmt.Sprint(k.ID, k.F+0), len(vs)})
	},
}

// checkOneGroupPerKey: every output names a distinct key, and there are
// exactly as many reducers as == distinct keys.
func checkOneGroupPerKey(t *testing.T, mode string, outs []zeroOut, met Metrics, distinct, inputs int) {
	t.Helper()
	seen := make(map[string]bool)
	total := 0
	for _, o := range outs {
		if seen[o.Key] {
			t.Errorf("%s: key %s reduced as two groups", mode, o.Key)
		}
		seen[o.Key] = true
		total += o.N
	}
	if met.Reducers != int64(distinct) || len(outs) != distinct || total != inputs {
		t.Errorf("%s: %d reducers, %d outputs over %d values; want %d, %d, %d",
			mode, met.Reducers, len(outs), total, distinct, distinct, inputs)
	}
}

// TestEqualKeysOneGroup: keys that are == must hash equal wherever
// placement is a function of the key value — under WithSeed and across
// ProcMode workers — or one reducer's group splits across partitions.
// +0.0 and -0.0 are the case that used to break, alone and in a struct.
func TestEqualKeysOneGroup(t *testing.T) {
	inputs := make([]int, 240)
	for i := range inputs {
		inputs[i] = i
	}
	floats := make(map[float64]bool)
	cells := make(map[floatCell]bool)
	for _, x := range inputs {
		floats[floatOfInput(x)] = true
		cells[floatCell{x % 3, float32(floatOfInput(x))}] = true
	}
	procCfg := Config{Workers: 2, Partitions: 8, ProcMode: true}

	for seed := uint64(1); seed <= 4; seed++ {
		restore := shuffle.WithSeed(seed)
		fj := *procFloatKeys
		fj.Config = Config{Partitions: 8}
		outs, met, err := fj.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		checkOneGroupPerKey(t, fmt.Sprint("float pinned seed ", seed), outs, met, len(floats), len(inputs))
		sj := *procFloatStructKeys
		sj.Config = Config{Partitions: 8}
		outs, met, err = sj.Run(inputs)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		checkOneGroupPerKey(t, fmt.Sprint("struct pinned seed ", seed), outs, met, len(cells), len(inputs))
	}

	fj := *procFloatKeys
	fj.Config = procCfg
	outs, met, err := fj.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkOneGroupPerKey(t, "float ProcMode", outs, met, len(floats), len(inputs))
	sj := *procFloatStructKeys
	sj.Config = procCfg
	outs, met, err = sj.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkOneGroupPerKey(t, "struct ProcMode", outs, met, len(cells), len(inputs))
}

// orderKey's formatted and field-wise orders differ: "{10 0}" sorts
// before "{2 0}" as text, after it field-wise.
type orderKey struct{ A, B int }

var procOrderKeys = &Job[int, orderKey, int, string]{
	Name: "mr-proc-order-keys",
	Map: func(x int, emit func(orderKey, int)) {
		emit(orderKey{[]int{2, 10, 100, 9, 33}[x%5], x % 7}, x)
		if x%3 == 0 {
			emit(orderKey{10, 2}, -x)
		}
	},
	// Order-sensitive reduce: catches any value reordering.
	Reduce: func(k orderKey, vs []int, emit func(string)) { emit(fmt.Sprint(k.A, ",", k.B, vs)) },
}

// TestDifferentialFieldwiseStructKeys runs a struct key whose formatted
// and field-wise orders disagree through the whole differential — spill
// on and off, range-split reduce, batch reduce — and through ProcMode with mid-task spills and range-split
// reduce workers. Every path must emit the groups in field-wise order.
func TestDifferentialFieldwiseStructKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	dir := t.TempDir()
	var spilled int64
	var inputs []int
	for trial := 0; trial < 6; trial++ {
		inputs = make([]int, 40+rng.Intn(200))
		for i := range inputs {
			inputs[i] = rng.Intn(10000)
		}
		mk := func(cfg Config) *Job[int, orderKey, int, string] {
			j := *procOrderKeys
			j.Config = cfg
			return &j
		}
		spilled += checkDifferential(t, fmt.Sprintf("order/%d", trial), mk, inputs, false, rng, dir)
	}
	if spilled == 0 {
		t.Error("no trial spilled to disk")
	}

	inproc := *procOrderKeys
	want, _, err := inproc.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var firstA []int
	for _, o := range want {
		var a int
		fmt.Sscanf(o, "%d", &a)
		firstA = append(firstA, a)
	}
	if !sort.IntsAreSorted(firstA) || firstA[0] != 2 || firstA[len(firstA)-1] != 100 {
		t.Fatalf("in-process outputs are not in field-wise key order: leading fields %v", firstA)
	}
	pj := *procOrderKeys
	pj.Config = Config{
		Workers: 2, Partitions: 4, MemoryBudget: 8, ReduceSplitPairs: 16,
		ProcMode: true,
	}
	got, met, err := pj.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProcMode outputs diverge from in-process outputs\ngot  %v\nwant %v", got, want)
	}
	if met.ReduceRanges == 0 {
		t.Error("ProcMode reduce was never range-split; the test missed that path")
	}
}

// procNaNKeys sends even inputs to key NaN and odd inputs to key 1.5.
var procNaNKeys = &Job[int, float64, int, int]{
	Name: "mr-proc-nan-keys",
	Map: func(x int, emit func(float64, int)) {
		if x%2 == 0 {
			emit(math.NaN(), x)
		} else {
			emit(1.5, x)
		}
	},
	Reduce: func(_ float64, vs []int, emit func(int)) { emit(len(vs)) },
}

// TestNaNKeyFailsRound: a NaN is not == to itself, so it could never
// find its own group and its values would go missing from the outputs.
// The round must fail instead — in memory, with spill and in ProcMode —
// and the failure must not be retried.
func TestNaNKeyFailsRound(t *testing.T) {
	inputs := make([]int, 20)
	for i := range inputs {
		inputs[i] = i
	}
	for _, tc := range []struct {
		mode string
		cfg  Config
	}{
		{"in memory", Config{}},
		{"spill", Config{MemoryBudget: 4, SpillDir: t.TempDir()}},
		{"ProcMode", Config{Workers: 2, Partitions: 4, ProcMode: true}},
	} {
		j := *procNaNKeys
		j.Config = tc.cfg
		outs, met, err := j.Run(inputs)
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: outs=%v err=%v, want an error naming the NaN key", tc.mode, outs, err)
			continue
		}
		if !tc.cfg.ProcMode && !errors.Is(err, shuffle.ErrNaNKey) {
			t.Errorf("%s: err %v does not wrap shuffle.ErrNaNKey", tc.mode, err)
		}
		if met.MapRetries != 0 {
			t.Errorf("%s: the NaN key was retried %d times; it must fail the round", tc.mode, met.MapRetries)
		}
	}
}

var procAnyKeys = &Job[int, struct{ V any }, int, int]{
	Name:   "mr-proc-any-keys",
	Map:    func(x int, emit func(struct{ V any }, int)) { emit(struct{ V any }{x % 3}, x) },
	Reduce: func(_ struct{ V any }, vs []int, emit func(int)) { emit(len(vs)) },
}

var procPointerKeys = &Job[int, *int, int, int]{
	Name:   "mr-proc-pointer-keys",
	Map:    func(x int, emit func(*int, int)) { emit(&x, x) },
	Reduce: func(_ *int, vs []int, emit func(int)) { emit(len(vs)) },
}

// TestUnplannableKeysRefused: a key type with an interface or pointer
// in it has no canonical order, so Run refuses it with an error naming
// the type — in process before any map task runs, in ProcMode before
// any worker is spawned (the job dir stays empty: not even the input
// image is written).
func TestUnplannableKeysRefused(t *testing.T) {
	inputs := []int{1, 2, 3}
	check := func(mode, typ string, run func(Config) error, mapped *int) {
		t.Helper()
		if err := run(Config{}); err == nil || !strings.Contains(err.Error(), typ) {
			t.Errorf("%s in process: err %v, want one naming %s", mode, err, typ)
		}
		if *mapped != 0 {
			t.Errorf("%s in process: %d map calls ran before the refusal", mode, *mapped)
		}
		dir := t.TempDir()
		if err := run(Config{Workers: 2, ProcMode: true, ProcDir: dir}); err == nil || !strings.Contains(err.Error(), typ) {
			t.Errorf("%s ProcMode: err %v, want one naming %s", mode, err, typ)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("%s ProcMode: job dir holds %d entries (%v); no worker may have been spawned", mode, len(ents), err)
		}
	}

	var anyMapped int
	check("interface key", "struct { V interface {} }", func(cfg Config) error {
		j := *procAnyKeys
		if !cfg.ProcMode {
			j.Map = func(x int, emit func(struct{ V any }, int)) { anyMapped++; procAnyKeys.Map(x, emit) }
		}
		j.Config = cfg
		_, _, err := j.Run(inputs)
		return err
	}, &anyMapped)

	var ptrMapped int
	check("pointer key", "*int", func(cfg Config) error {
		j := *procPointerKeys
		if !cfg.ProcMode {
			j.Map = func(x int, emit func(*int, int)) { ptrMapped++; procPointerKeys.Map(x, emit) }
		}
		j.Config = cfg
		_, _, err := j.Run(inputs)
		return err
	}, &ptrMapped)
}

var procPointerValues = &Job[int, int, *int, int]{
	Name:   "mr-proc-pointer-values",
	Map:    func(x int, emit func(int, *int)) { emit(x%2, &x) },
	Reduce: func(_ int, vs []*int, emit func(int)) { emit(len(vs)) },
}

// TestUncodableValuesRefused: a value type with no run-file codec runs
// in memory, but a job that would write it to disk or send it to another
// process is refused with an error naming the type before any map task
// runs or any worker is spawned.
func TestUncodableValuesRefused(t *testing.T) {
	inputs := []int{1, 2, 3}
	var mapped atomic.Int64 // map tasks run on several workers
	j := *procPointerValues
	j.Map = func(x int, emit func(int, *int)) { mapped.Add(1); procPointerValues.Map(x, emit) }
	if outs, _, err := j.Run(inputs); err != nil || len(outs) != 2 {
		t.Fatalf("in memory: outputs %v, err %v; want 2 groups", outs, err)
	}
	mapped.Store(0)
	j.Config = Config{MemoryBudget: 2, SpillDir: t.TempDir()}
	if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "*int has no codec") {
		t.Errorf("spilling: err %v, want one naming *int", err)
	}
	if n := mapped.Load(); n != 0 {
		t.Errorf("spilling: %d map calls ran before the refusal", n)
	}
	dir := t.TempDir()
	pj := *procPointerValues
	pj.Config = Config{Workers: 2, ProcMode: true, ProcDir: dir}
	if _, _, err := pj.Run(inputs); err == nil || !strings.Contains(err.Error(), "*int has no codec") {
		t.Errorf("ProcMode: err %v, want one naming *int", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("ProcMode: job dir holds %d entries (%v); no worker may have been spawned", len(ents), err)
	}
}
