package triangle

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/graphs"
)

// localTriangles is the reducer kernel of Run, Census and Count: it calls
// emit(u, v, w), u < v < w, for each triangle among one cell's edges that
// the cell owns under the exactly-once rule. It cleans the edges as
// graphs.New does and sorts them by (U, V) in place, so u's forward list
// out(u) = {w > u} is a contiguous run; then for each u it stamps out(u)
// and, for each v in out(u), emits the stamped w of out(v). That is graphs.Graph.Triangles' order, and the same on a
// retried attempt. The serial counters in internal/graphs are not built
// on this kernel: they stay the independent reference the distributed
// runs are checked against.
func (s *PartitionSchema) localTriangles(cell int, edges []graphs.Edge, emit func(u, v, w int)) {
	sc := scratchPool.Get().(*cellScratch)
	sc.triangles(s, cell, edges, emit)
	scratchPool.Put(sc)
}

// cellScratch is the kernel's per-node memory. An entry is current only
// when it carries a stamp of the current call, so no O(n) array is
// cleared per cell.
type cellScratch struct {
	run  []nodeRun // out(u) = edges[lo:hi]
	mark []uint32  // w is in the current out(u)
	gen  uint32
}

type nodeRun struct{ lo, hi, gen uint32 }

var scratchPool = sync.Pool{New: func() any { return new(cellScratch) }}

func (sc *cellScratch) triangles(s *PartitionSchema, cell int, edges []graphs.Edge, emit func(u, v, w int)) {
	n := 0
	for _, e := range edges {
		if e = graphs.NewEdge(e.U, e.V); e.U != e.V && e.U >= 0 && e.V < s.N {
			edges[n] = e
			n++
		}
	}
	slices.SortFunc(edges[:n], cmpEdge)
	edges = slices.Compact(edges[:n])
	// This call takes one stamp for the runs, then one per u; fresh
	// arrays replace the old ones before the stamp could wrap around.
	if len(sc.run) < s.N || uint64(sc.gen)+uint64(len(edges)) >= math.MaxUint32 {
		sc.run, sc.mark, sc.gen = make([]nodeRun, s.N), make([]uint32, s.N), 0
	}
	sc.gen++
	runGen := sc.gen
	for i, e := range edges {
		if r := &sc.run[e.U]; r.gen == runGen {
			r.hi++
		} else {
			*r = nodeRun{uint32(i), uint32(i + 1), runGen}
		}
	}
	for i := 0; i < len(edges); {
		u := edges[i].U
		out := edges[i:sc.run[u].hi]
		i += len(out)
		sc.gen++
		for _, e := range out {
			sc.mark[e.V] = sc.gen
		}
		bu := s.Bucket(u)
		for _, e := range out {
			r, bv := sc.run[e.V], s.Bucket(e.V)
			if r.gen != runGen {
				continue
			}
			for _, f := range edges[r.lo:r.hi] {
				if sc.mark[f.V] == sc.gen && s.cellOf(bu, bv, s.Bucket(f.V)) == cell {
					emit(u, e.V, f.V)
				}
			}
		}
	}
}

func cmpEdge(a, b graphs.Edge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}
