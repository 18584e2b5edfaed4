package mr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

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
	procCfg := Config{Workers: 2, Partitions: 8, ProcMode: true, ProcTimeout: 90 * time.Second}

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
		ProcMode: true, ProcTimeout: 90 * time.Second,
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
