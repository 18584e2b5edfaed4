package triangle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graphs"
	"repro/internal/mr"
)

// BenchmarkPartitionCount sweeps k on a sparse graph.
func BenchmarkPartitionCount(b *testing.B) {
	g := graphs.GNM(200, 3000, rand.New(rand.NewSource(1)))
	for _, k := range []int{2, 4, 8} {
		s, err := NewPartitionSchema(200, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Count(s, g, mr.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerialCount is the non-distributed baseline.
func BenchmarkSerialCount(b *testing.B) {
	g := graphs.GNM(200, 3000, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.TriangleCount()
	}
}

// BenchmarkEdgeIndex measures the dense edge indexing round trip.
func BenchmarkEdgeIndex(b *testing.B) {
	p := NewProblem(1000)
	for i := 0; i < b.N; i++ {
		idx := p.EdgeIndex(i%999, (i%999)+1)
		_, _ = p.EdgeFromIndex(idx)
	}
}

// BenchmarkLocalTriangles is the reducer kernel on one census-sized cell:
// the largest cell of GNM(1000, 100 000) at k = 8. Each iteration copies
// the cell's edges first, since the kernel sorts them in place.
func BenchmarkLocalTriangles(b *testing.B) {
	s, cell, edges := largestCell(b)
	buf := make([]graphs.Edge, len(edges))
	var count int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, edges)
		s.localTriangles(cell, buf, func(_, _, _ int) { count++ })
	}
}
