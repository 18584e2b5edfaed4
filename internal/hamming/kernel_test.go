package hamming

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/mr"
)

// scanPairs is the all-pairs reducer loop segmentPairs replaced, kept as
// its oracle: sort, then compare every pair. It keeps a distance-1 pair
// only when the bit it differs in is free, which every pair of a group
// that agrees outside free satisfies.
func scanPairs(xs []uint64, free uint64, emit func(Pair)) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if bitstr.Distance(xs[i], xs[j]) == 1 && (xs[i]^xs[j])&free != 0 {
				emit(Pair{xs[i], xs[j]})
			}
		}
	}
}

// collectPairs runs a kernel over a copy of xs and returns what it emits.
func collectPairs(kernel func([]uint64, uint64, func(Pair)), xs []uint64, free uint64) []Pair {
	var out []Pair
	kernel(slices.Clone(xs), free, func(p Pair) { out = append(out, p) })
	return out
}

// checkKernel holds segmentPairs to the oracle on one group, both on xs
// as given and shuffled.
func checkKernel(t *testing.T, name string, xs []uint64, free uint64, rng *rand.Rand) {
	t.Helper()
	want := collectPairs(scanPairs, xs, free)
	shuffled := slices.Clone(xs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, in := range [][]uint64{xs, shuffled} {
		if got := collectPairs(segmentPairs, in, free); !slices.Equal(got, want) {
			t.Fatalf("%s: kernel emitted %d pairs %v, scan %d %v", name, len(got), head(got), len(want), head(want))
		}
	}
}

func head(ps []Pair) []Pair { return ps[:min(len(ps), 8)] }

// group returns the values base | v<<lo for v in vs, as a Splitting group
// whose removed segment is bits lo..lo+w-1.
func group(base uint64, lo, w int, vs []uint64) []uint64 {
	seg := (uint64(1)<<w - 1) << lo
	xs := make([]uint64, len(vs))
	for i, v := range vs {
		xs[i] = base&^seg | v<<lo
	}
	return xs
}

func TestSegmentPairsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for w := 1; w <= 12; w++ {
		for _, lo := range []int{0, 3, w, 17, 64 - w} {
			seg := (uint64(1)<<w - 1) << lo
			n := 1 << w
			// base sets bits outside any b: the kernel must carry them.
			for _, base := range []uint64{rng.Uint64(), 1<<63 | 1<<40} {
				all := make([]uint64, n)
				for v := range all {
					all[v] = uint64(v)
				}
				dups := make([]uint64, n)
				for i := range dups {
					dups[i] = uint64(rng.Intn(n))
				}
				sparse := make([]uint64, max(2, n/8))
				for i := range sparse {
					sparse[i] = uint64(rng.Intn(n))
				}
				cases := map[string][]uint64{
					"empty":  nil,
					"single": {uint64(rng.Intn(n))},
					"pair":   {0, 1},
					"all":    all,
					"dups":   dups,
					"sparse": sparse,
					"twice":  append(slices.Clone(all), all...),
				}
				for name, vs := range cases {
					xs := group(base, lo, w, vs)
					checkKernel(t, fmt.Sprintf("w=%d lo=%d base=%#x %s", w, lo, base, name), xs, seg, rng)
				}
				// A group that does not agree outside the segment takes
				// the sparse path; so does every bit free, as in
				// RunWeight. Its halves differ in one bit outside the
				// segment, so only "every bit" pairs across them.
				out := (lo + w) % 64
				if out < lo {
					out = lo - 1
				}
				mixed := append(group(base, lo, w, all[:n/2]), group(base^1<<out, lo, w, sparse)...)
				checkKernel(t, fmt.Sprintf("w=%d lo=%d mixed", w, lo), mixed, seg, rng)
				checkKernel(t, fmt.Sprintf("w=%d lo=%d every bit", w, lo), mixed, ^uint64(0), rng)
			}
		}
	}
}

func FuzzSegmentPairs(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint64(0), []byte{0, 1, 0, 2, 0, 3, 0, 3, 0, 7})
	f.Add(uint8(9), uint8(11), uint64(1)<<63, []byte{1, 0, 1, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(60), uint8(3), ^uint64(0), []byte{0, 0, 0, 1, 0, 2, 0, 4, 0, 6, 0, 7})
	f.Add(uint8(2), uint8(6), uint64(0xABC), []byte{0x80, 1, 0, 2, 0x81, 3})
	f.Add(uint8(0), uint8(1), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, lo, w uint8, base uint64, data []byte) {
		width := 1 + int(w)%16
		off := int(lo) % (65 - width)
		seg := (uint64(1)<<width - 1) << off
		var xs []uint64
		for i := 0; i+1 < len(data); i += 2 {
			x := base&^seg | (uint64(data[i]&0x7f)<<8|uint64(data[i+1]))<<off&seg
			if data[i]&0x80 != 0 { // a value outside the group's agreement
				x ^= 1 << (data[i+1] % 64)
			}
			xs = append(xs, x)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkKernel(t, "segment", xs, seg, rng)
		checkKernel(t, "every bit", xs, ^uint64(0), rng)
	})
}

func TestSegmentPairsAllocs(t *testing.T) {
	const lo, w = 12, 6
	seg := (uint64(1)<<w - 1) << lo
	vs := make([]uint64, 1<<w)
	for v := range vs {
		vs[v] = uint64(v)
	}
	xs := group(0xF00F00000, lo, w, vs)
	work := make([]uint64, len(xs))
	n := 0
	emit := func(Pair) { n++ }
	if allocs := testing.AllocsPerRun(100, func() {
		copy(work, xs)
		segmentPairs(work, seg, emit)
	}); allocs != 0 {
		t.Errorf("dense q=64 group: %v allocs per call, want 0", allocs)
	}
	if want := 101 * w << (w - 1); n != want {
		t.Errorf("emitted %d pairs over 101 calls, want %d", n, want)
	}
}

// scanSplitting and scanWeight are RunSplitting and RunWeight with the
// all-pairs reducers they had before segmentPairs.
func scanSplitting(s SplittingSchema, inputs []uint64, cfg mr.Config) ([]Pair, error) {
	job := &mr.Job[uint64, splitKey, uint64, Pair]{
		Map: func(x uint64, emit func(splitKey, uint64)) {
			for g := 0; g < s.C; g++ {
				emit(splitKey{g, bitstr.RemoveSegment(x, g, s.C, s.B)}, x)
			}
		},
		Reduce: func(_ splitKey, xs []uint64, emit func(Pair)) { scanPairs(xs, ^uint64(0), emit) },
		Config: cfg,
	}
	out, _, err := job.Run(inputs)
	return out, err
}

func scanWeight(s *WeightSchema, inputs []uint64) ([]Pair, error) {
	primary := func(x uint64) int {
		ws := bitstr.PieceWeights(x, s.D, s.B)
		groups := make([]int, s.D)
		for i, w := range ws {
			groups[i] = s.group(w)
		}
		return s.cellID(groups)
	}
	job := &mr.Job[uint64, int, uint64, Pair]{
		Map: func(x uint64, emit func(int, uint64)) {
			for _, cell := range s.Assign(int(x)) {
				emit(cell, x)
			}
		},
		Reduce: func(cell int, xs []uint64, emit func(Pair)) {
			scanPairs(xs, ^uint64(0), func(p Pair) {
				lower := p.X
				if bits.OnesCount64(p.Y) < bits.OnesCount64(p.X) {
					lower = p.Y
				}
				if primary(lower) == cell {
					emit(p)
				}
			})
		},
	}
	out, _, err := job.Run(inputs)
	return out, err
}

// TestRunSplittingMatchesScan holds RunSplitting's output slice, order
// included, to the all-pairs reducer's at b = 18, c = 3 and on the
// catalogue's small instance (b = 10, 1 024 random strings).
func TestRunSplittingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := make([]uint64, 1<<10)
	for i := range small {
		small[i] = rng.Uint64() & (1<<10 - 1)
	}
	for _, c := range []struct {
		b, c   int
		inputs []uint64
		cfg    mr.Config
	}{
		{18, 3, allStrings(18), mr.Config{}},
		{18, 3, allStrings(18), mr.Config{Workers: 2, MemoryBudget: 4096, SpillDir: t.TempDir()}},
		{10, 1, small, mr.Config{}},
		{10, 2, small, mr.Config{}},
		{10, 5, small, mr.Config{}},
	} {
		s, err := NewSplittingSchema(c.b, c.c)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunSplitting(s, c.inputs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scanSplitting(s, c.inputs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("b=%d c=%d: %d pairs, all-pairs reducer %d, or a different order", c.b, c.c, len(got), len(want))
		}
	}
}

// TestRunWeightMatchesScan is the same differential for RunWeight over
// every NewWeightSchema instance at b = 8..12, on the whole universe and
// on a random sparse subset.
func TestRunWeightMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for b := 8; b <= 12; b++ {
		sub := make([]uint64, 1<<(b-3))
		for i := range sub {
			sub[i] = uint64(rng.Intn(1 << b))
		}
		for d := 1; d <= b; d++ {
			for k := 1; k <= b; k++ {
				s, err := NewWeightSchema(b, k, d)
				if err != nil {
					continue
				}
				for _, in := range [][]uint64{allStrings(b), sub} {
					got, _, err := RunWeight(s, in, mr.Config{})
					if err != nil {
						t.Fatal(err)
					}
					want, err := scanWeight(s, in)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("b=%d k=%d d=%d, %d inputs: %d pairs, all-pairs reducer %d, or a different order",
							b, k, d, len(in), len(got), len(want))
					}
				}
			}
		}
	}
}

// BenchmarkSegmentPairs is one dense Splitting group (q = 64, w = 6)
// through the kernel, through its sparse path alone and through the
// all-pairs scan, shuffled before each call as a reduce's values arrive.
func BenchmarkSegmentPairs(b *testing.B) {
	const lo, w = 6, 6
	seg := (uint64(1)<<w - 1) << lo
	vs := make([]uint64, 1<<w)
	for v := range vs {
		vs[v] = uint64(v)
	}
	xs := group(0x3F03F, lo, w, vs)
	for _, k := range []struct {
		name   string
		kernel func([]uint64, uint64, func(Pair))
	}{{"kernel", segmentPairs}, {"sparse", sparsePairs}, {"scan", scanPairs}} {
		b.Run(k.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := 0
			emit := func(Pair) { n++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				k.kernel(xs, seg, emit)
			}
			if n != b.N*w<<(w-1) {
				b.Fatalf("%d pairs over %d calls", n, b.N)
			}
		})
	}
}
