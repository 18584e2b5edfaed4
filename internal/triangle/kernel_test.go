package triangle

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graphs"
)

// referenceCell is the reducer the kernel replaced, built on the untouched
// serial reference: graphs.New(n, edges).Triangles() filtered by the
// exactly-once rule (the cell whose bucket triple is the triangle's own
// bucket multiset).
func referenceCell(s *PartitionSchema, cell int, edges []graphs.Edge) [][3]int {
	var out [][3]int
	for _, tr := range graphs.New(s.N, edges).Triangles() {
		t := [3]int{s.Bucket(tr[0]), s.Bucket(tr[1]), s.Bucket(tr[2])}
		sort.Ints(t[:])
		if s.tripleID(t[0], t[1], t[2]) == cell {
			out = append(out, tr)
		}
	}
	return out
}

func collect(run func(emit func(u, v, w int))) [][3]int {
	var out [][3]int
	run(func(u, v, w int) { out = append(out, [3]int{u, v, w}) })
	return out
}

// checkCell compares the kernel's emission sequence for one cell with the
// reference, then runs the kernel again on the slice it reordered, as a
// retried reduce attempt would, and wants the same sequence.
func checkCell(t *testing.T, s *PartitionSchema, cell int, edges []graphs.Edge) {
	t.Helper()
	want := referenceCell(s, cell, slices.Clone(edges))
	for attempt := 0; attempt < 2; attempt++ {
		got := collect(func(emit func(u, v, w int)) { s.localTriangles(cell, edges, emit) })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d cell=%d attempt %d: kernel emitted %v, reference %v",
				s.N, s.K, cell, attempt, got, want)
		}
	}
}

// routedCells sends g's edges to their cells, then dirties every cell with
// reversed duplicates, self-loops and out-of-range nodes, shuffled.
func routedCells(s *PartitionSchema, g *graphs.Graph, rng *rand.Rand) [][]graphs.Edge {
	cells := make([][]graphs.Edge, s.NumReducers())
	for _, e := range g.Edges {
		s.forEachCell(e.U, e.V, func(cell int) { cells[cell] = append(cells[cell], e) })
	}
	n := s.N
	for c, es := range cells {
		for i := len(es) / 4; i > 0; i-- {
			e := es[rng.Intn(len(es))]
			es = append(es, graphs.Edge{U: e.V, V: e.U}, e)
		}
		es = append(es, graphs.Edge{U: 2, V: 2}, graphs.Edge{U: -1, V: 2}, graphs.Edge{U: n - 1, V: n}, graphs.Edge{U: n + 3, V: 1})
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		cells[c] = es
	}
	return cells
}

func TestLocalTrianglesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for k := 1; k <= 6; k++ {
		n := 20 + rng.Intn(40)
		g := graphs.GNM(n, rng.Intn(n*(n-1)/2)+1, rng)
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			t.Fatal(err)
		}
		cells := routedCells(s, g, rng)
		for cell, es := range cells {
			checkCell(t, s, cell, slices.Clone(es))
		}
		checkCell(t, s, 0, nil) // an empty cell
	}
}

// TestLocalTrianglesStampWrap drives a scratch across the wrap-around of
// its generation stamp after using it at low stamps, so stale entries
// would read as current if the wrap did not clear the arrays.
func TestLocalTrianglesStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, err := NewPartitionSchema(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	cells := routedCells(s, graphs.GNM(40, 300, rng), rng)
	sc := new(cellScratch)
	pass := func() {
		for cell, es := range cells {
			want := referenceCell(s, cell, slices.Clone(es))
			got := collect(func(emit func(u, v, w int)) { sc.triangles(s, cell, slices.Clone(es), emit) })
			if !slices.Equal(got, want) {
				t.Fatalf("cell %d (stamp %d): kernel emitted %v, reference %v", cell, sc.gen, got, want)
			}
		}
	}
	pass()
	sc.gen = math.MaxUint32 - uint32(4*len(cells[0]))
	pass()
	if sc.gen > math.MaxUint32/2 {
		t.Fatalf("stamp did not wrap: %d", sc.gen)
	}
	pass()
}

// TestForEachCellOrder pins Assign's cell order: the sorted bucket triple
// {bu, bv, w} for w = 0..k-1.
func TestForEachCellOrder(t *testing.T) {
	for k := 1; k <= 6; k++ {
		s, err := NewPartitionSchema(9, k)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 9; u++ {
			for v := u + 1; v < 9; v++ {
				var want []int
				for w := 0; w < k; w++ {
					tr := []int{s.Bucket(u), s.Bucket(v), w}
					sort.Ints(tr)
					want = append(want, s.tripleID(tr[0], tr[1], tr[2]))
				}
				if got := s.Assign(NewProblem(9).EdgeIndex(u, v)); !slices.Equal(got, want) {
					t.Fatalf("k=%d edge (%d,%d): cells %v, want %v", k, u, v, got, want)
				}
			}
		}
	}
}

// largestCell is the most loaded cell of GNM(1000, 100 000) at k = 8 (the
// census workload's shape), its edges in arbitrary order.
func largestCell(tb testing.TB) (*PartitionSchema, int, []graphs.Edge) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graphs.GNM(1000, 100000, rng)
	s, err := NewPartitionSchema(1000, 8)
	if err != nil {
		tb.Fatal(err)
	}
	cells := make([][]graphs.Edge, s.NumReducers())
	for _, e := range g.Edges {
		s.forEachCell(e.U, e.V, func(cell int) { cells[cell] = append(cells[cell], e) })
	}
	big := 0
	for c := range cells {
		if len(cells[c]) > len(cells[big]) {
			big = c
		}
	}
	rng.Shuffle(len(cells[big]), func(i, j int) { cells[big][i], cells[big][j] = cells[big][j], cells[big][i] })
	return s, big, cells[big]
}

func TestLocalTrianglesAllocs(t *testing.T) {
	s, cell, edges := largestCell(t)
	var count int
	emit := func(_, _, _ int) { count++ }
	s.localTriangles(cell, edges, emit)
	if allocs := testing.AllocsPerRun(20, func() { s.localTriangles(cell, edges, emit) }); allocs > 1 {
		t.Errorf("kernel allocates %.1f times per warm cell, want at most 1", allocs)
	}
}

func FuzzLocalTriangles(f *testing.F) {
	f.Add(uint8(10), uint8(3), uint8(0), []byte{})
	f.Add(uint8(10), uint8(1), uint8(0), []byte{2, 3, 3, 4, 4, 2, 3, 2, 5, 5, 0, 15})
	f.Add(uint8(12), uint8(2), uint8(1), []byte{0, 1, 1, 2, 2, 0, 0, 2, 1, 3, 3, 0, 2, 3})
	f.Add(uint8(20), uint8(4), uint8(7), []byte{7, 3, 3, 11, 11, 7, 7, 11, 2, 6, 6, 10, 10, 2, 1, 22})
	f.Fuzz(func(t *testing.T, nRaw, kRaw, cellRaw uint8, data []byte) {
		n, k := int(nRaw%40)+1, int(kRaw%6)+1
		s, err := NewPartitionSchema(n, k)
		if err != nil {
			t.Fatal(err)
		}
		// Nodes range over [-2, n+1], so some fall outside the graph.
		var edges []graphs.Edge
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, graphs.Edge{U: int(data[i])%(n+4) - 2, V: int(data[i+1])%(n+4) - 2})
		}
		checkCell(t, s, int(cellRaw)%s.NumReducers(), edges)
	})
}
