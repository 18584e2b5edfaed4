package engine

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// TestCollectorChunks: every key's outputs come back from ForEach as one
// exact slice (length = outputs emitted, capacity clipped), keys sharing
// a chunk sit back to back, and a retired chunk's backing array never
// moves while later outputs are collected — including keys of cap-1,
// cap, cap+1 and 3·cap+1 outputs, which fill chunks mid-key.
func TestCollectorChunks(t *testing.T) {
	cp := chunkCap[int]()
	counts := []int{0, 1, cp - 1, cp, cp + 1, 3*cp + 1, 0, 2, 5, cp - 1, 0, 1}
	var c Collector[int, int]
	emit := c.Emit
	var backs []*int // first element of each retired chunk, as first seen
	next := 0
	for k, n := range counts {
		for range n {
			emit(next)
			next++
			for i, ch := range c.full {
				if i == len(backs) {
					backs = append(backs, &ch[0])
				} else if &ch[0] != backs[i] {
					t.Fatalf("retired chunk %d moved after output %d", i, next)
				}
			}
		}
		c.EndKey(k)
	}
	if c.Len() != next {
		t.Fatalf("Len = %d, want %d", c.Len(), next)
	}
	if len(c.full) == 0 {
		t.Fatal("no chunk was retired; the test is vacuous")
	}

	starts := map[*int]bool{}
	for i := 0; i <= len(c.full); i++ {
		if ch := c.chunk(i); len(ch) > 0 {
			starts[&ch[0]] = true
		}
	}
	var keys []int
	var prev []int
	want := 0
	c.ForEach(func(k int, outs []int) {
		keys = append(keys, k)
		if len(outs) != counts[k] || cap(outs) != len(outs) {
			t.Fatalf("key %d: len %d cap %d, want exactly %d", k, len(outs), cap(outs), counts[k])
		}
		for j, o := range outs {
			if o != want {
				t.Fatalf("key %d output %d = %d, want %d", k, j, o, want)
			}
			want++
		}
		if len(outs) == 0 {
			return
		}
		if prev != nil && !starts[&outs[0]] && unsafe.Pointer(&outs[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(0))) {
			t.Fatalf("key %d neither follows the previous key nor opens a chunk", k)
		}
		prev = outs
	})
	if len(keys) != len(counts) || !slices.IsSorted(keys) {
		t.Fatalf("ForEach yielded keys %v, want 0..%d in order", keys, len(counts)-1)
	}
}

// TestAssembleMatchesReference: a round's outputs equal the naive
// reference — keys in SortKeys order, each key's outputs in emission
// order — with keys emitting 0, 1, cap-1, cap, cap+1 and 3·cap+1
// outputs, whole and range-split partitions, injected reduce failures
// (the failed attempt's collected chunks must be dropped, not doubled).
func TestAssembleMatchesReference(t *testing.T) {
	cp := chunkCap[int64]()
	sizes := []int{0, 1, cp - 1, cp, cp + 1, 3*cp + 1}
	const nkeys = 24
	var inputs []int
	for k := 0; k < nkeys; k++ {
		for j := 0; j <= k%3; j++ {
			inputs = append(inputs, k)
		}
	}
	reduce := func(k int, vs []int, emit func(int64)) {
		for j := range sizes[k%len(sizes)] {
			emit(int64(k)<<32 | int64(j*4+len(vs)))
		}
	}
	var want []int64
	for k := 0; k < nkeys; k++ {
		reduce(k, make([]int, k%3+1), func(o int64) { want = append(want, o) })
	}

	for _, tc := range []struct {
		name             string
		split, failEvery int
	}{
		{"whole", 0, 0},
		{"split", 4, 0},
		{"retry", 0, 1},
		{"split-retry", 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runSlice(Round[int, int, int, int64]{
				Name:   tc.name,
				Map:    func(x int, emit func(int, int)) { emit(x, x) },
				Reduce: reduce,
				Config: Config{
					Plan:          Plan{Workers: 3, Partitions: 4, ReduceSplitPairs: tc.split},
					FailureEveryN: tc.failEvery,
				},
			}, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Outputs, want) || res.Metrics.Outputs != int64(len(want)) {
				t.Fatalf("%d outputs (metric %d) differ from the %d-output reference", len(res.Outputs), res.Metrics.Outputs, len(want))
			}
			if (tc.split > 0) != (res.Metrics.ReduceRanges > 0) {
				t.Errorf("ReduceRanges = %d with split target %d", res.Metrics.ReduceRanges, tc.split)
			}
			if (tc.failEvery > 0) != (res.Metrics.ReduceRetries > 0) {
				t.Errorf("ReduceRetries = %d with FailureEveryN %d", res.Metrics.ReduceRetries, tc.failEvery)
			}
		})
	}
}

// TestOutputAllocsPerKey: collecting and assembling outputs costs no
// allocation per key — a 4096-key round emitting 64 outputs per key
// allocates under half an allocation per key more than the same round
// emitting none. A per-key slice grown by append, or an output slice
// grown by append during assembly, costs several per key.
func TestOutputAllocsPerKey(t *testing.T) {
	const keys = 4096
	inputs := make([]int, keys)
	for i := range inputs {
		inputs[i] = i
	}
	allocs := func(perKey int) float64 {
		r := Round[int, int, int, int]{
			Name: "allocs",
			Map:  func(x int, emit func(int, int)) { emit(x, x) },
			Reduce: func(k int, _ []int, emit func(int)) {
				for j := range perKey {
					emit(k + j)
				}
			},
			Config: Config{Plan: Plan{Workers: 2, Partitions: 4, MapChunk: 512}},
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := runSlice(r, inputs); err != nil {
				t.Fatal(err)
			}
		})
	}
	full, empty := allocs(64), allocs(0)
	if d := (full - empty) / keys; d >= 0.5 {
		t.Errorf("64 outputs per key cost %.2f allocations per key over none (%.0f vs %.0f), want < 0.5", d, full, empty)
	}
}

// TestOutputAssembleSpan: a traced round names the reduce phase's
// serial tail — one output-assemble span on the round lane, inside
// phase:reduce, over every key and output — and its trace stays
// balanced and valid.
func TestOutputAssembleSpan(t *testing.T) {
	rec := obs.NewRecorder(0)
	res, err := runSlice(wordCountRound(Config{Plan: Plan{Workers: 2, Partitions: 4, Recorder: rec}}),
		[]string{"b a a", "c b a", "d"})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if err := obs.CheckBalanced(snap); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var open []obs.Op // the round lane's span stack
	spans := 0
	for _, ls := range snap {
		if ls.Kind != obs.LaneRound {
			continue
		}
		for _, ev := range ls.Events {
			switch {
			case ev.Kind == obs.KindBegin:
				if ev.Op == obs.OpOutputAssemble && !slices.Equal(open, []obs.Op{obs.OpPhaseReduce}) {
					t.Errorf("output-assemble opened under %v, want directly inside phase:reduce", open)
				}
				open = append(open, ev.Op)
			case ev.Kind == obs.KindEnd:
				open = open[:len(open)-1]
				if ev.Op == obs.OpOutputAssemble {
					spans++
					if ev.A != res.Metrics.Reducers || ev.B != res.Metrics.Outputs {
						t.Errorf("output-assemble end (keys %d, outputs %d), want (%d, %d)",
							ev.A, ev.B, res.Metrics.Reducers, res.Metrics.Outputs)
					}
				}
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d output-assemble spans, want 1", spans)
	}
}
