package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// TestImageReadsAnyRange: a round run to keep its outputs returns an
// image and no slice, and every way of reading the image gives the
// naive reference sequence — keys in SortKeys order, each key's
// outputs in emission order: the parallel copy (assemble), and any cut
// into ascending ranges, read range by range, with keys of 0, 1,
// cap-1, cap, cap+1 and 3·cap+1 outputs over whole and range-split
// partitions. A slice is an image of itself.
func TestImageReadsAnyRange(t *testing.T) {
	cp := chunkCap[int64]()
	sizes := []int{0, 1, cp - 1, cp, cp + 1, 3*cp + 1}
	const nkeys = 24
	var inputs []int
	for k := range nkeys {
		inputs = append(inputs, k)
	}
	reduce := func(k int, _ []int, emit func(int64)) {
		for j := range sizes[k%len(sizes)] {
			emit(int64(k)<<32 | int64(j))
		}
	}
	var want []int64
	for k := range nkeys {
		reduce(k, nil, func(o int64) { want = append(want, o) })
	}
	rng := rand.New(rand.NewSource(36))
	check := func(t *testing.T, im *Image[int64]) {
		t.Helper()
		if got := im.assemble(3, nil); !slices.Equal(got, want) {
			t.Fatalf("assemble: %d outputs differ from the %d-output reference", len(got), len(want))
		}
		for range 20 {
			cuts := []int{0, len(want)}
			for range rng.Intn(12) {
				cuts = append(cuts, rng.Intn(len(want)+1))
			}
			slices.Sort(cuts)
			var ranges []TaskRange
			for i := 1; i < len(cuts); i++ {
				ranges = append(ranges, TaskRange{cuts[i-1], cuts[i]})
			}
			var got []int64
			for i, sp := range im.seek(ranges) {
				n := len(got)
				for part := range im.read(sp) {
					got = append(got, part...)
				}
				if len(got)-n != ranges[i].Hi-ranges[i].Lo {
					t.Fatalf("range %v read %d outputs", ranges[i], len(got)-n)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ranges %v read back differently from the reference", ranges)
			}
		}
	}
	for _, split := range []int{0, 4} {
		res, err := Run(Round[int, int, int, int64]{
			Name:   "keep",
			Map:    func(x int, emit func(int, int)) { emit(x, x) },
			Reduce: reduce,
			Config: Config{Plan: Plan{Workers: 3, Partitions: 4, ReduceSplitPairs: split}},
		}, SliceImage(inputs), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs != nil || res.Image == nil || res.Metrics.Outputs != int64(len(want)) {
			t.Fatalf("kept round: %d outputs, image %v, Outputs metric %d", len(res.Outputs), res.Image != nil, res.Metrics.Outputs)
		}
		check(t, res.Image)
	}
	check(t, SliceImage(want))
}

// FuzzMapCombine: the folding map-side combine emits exactly what a
// serial group-then-combine does — keys in first-emitted order, each
// key's values combined once — for arbitrary key streams and fold
// points, with combiners that sum, keep everything (returning their
// input), keep the three largest, or sort and deduplicate in place. A
// summing combine never buffers more than twice the fold count.
func FuzzMapCombine(f *testing.F) {
	f.Add([]byte("abcabcaaaaaaaaaaaaaaaaab"), uint8(3), uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 1, 1, 1, 1, 1, 1, 1, 9}, uint8(1), uint8(1))
	f.Add([]byte("zzzzzzzzzzzzyyyyyyyyyyyxxxx"), uint8(7), uint8(2))
	f.Add([]byte("mississippi river banks"), uint8(2), uint8(3))
	combiners := []CombineFunc[int, int]{
		func(_ int, vs []int) []int {
			s := 0
			for _, v := range vs {
				s += v
			}
			return []int{s}
		},
		func(_ int, vs []int) []int { return vs },
		func(_ int, vs []int) []int {
			top := slices.Clone(vs)
			slices.SortFunc(top, func(a, b int) int { return b - a })
			return top[:min(len(top), 3)]
		},
		func(_ int, vs []int) []int {
			slices.Sort(vs)
			return slices.Compact(vs)
		},
	}
	f.Fuzz(func(t *testing.T, stream []byte, fold, kind uint8) {
		combine := combiners[int(kind)%len(combiners)]
		c := &mapCombiner[int, int]{combine: combine, foldAt: int(fold%64) + 1, slot: map[int]int{}}
		var keys []int
		groups := map[int][]int{}
		for _, b := range stream {
			k, v := int(b%11), int(b>>3)
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], v)
			c.add(k, v)
			if kind%4 == 0 && len(c.vals[c.slot[k]]) > 2*c.foldAt {
				t.Fatalf("key %d buffers %d values with fold count %d", k, len(c.vals[c.slot[k]]), c.foldAt)
			}
		}
		type kv struct{ k, v int }
		var got, want []kv
		c.flush(func(k, v int) { got = append(got, kv{k, v}) })
		for _, k := range keys {
			for _, v := range combine(k, slices.Clone(groups[k])) {
				want = append(want, kv{k, v})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("fold count %d, combiner %d:\n got %v\nwant %v", c.foldAt, kind%4, got, want)
		}
	})
}
