package triangle

import (
	"fmt"

	"repro/internal/graphs"
	"repro/internal/mr"
)

// Census is the multi-round extension of the Section 4 workload: after
// the one-round partition algorithm finds every triangle, two further
// rounds turn the raw triples into the social-network-analysis numbers
// — per-node triangle counts, then the distribution of those counts.
// The three rounds run as one pipeline on the partitioned executor, so
// the per-round communication profile (the paper's r and q for each
// round) comes from the real data path.

// NodeCount is a round-2 output: how many triangles a node closes.
type NodeCount struct {
	Node      int
	Triangles int64
}

// CensusBin is a round-3 output: how many nodes close exactly
// Triangles triangles. Nodes in no triangle are not binned.
type CensusBin struct {
	Triangles int64
	Nodes     int64
}

// CensusResult is the outcome of the three-round census.
type CensusResult struct {
	PerNode  []NodeCount
	Bins     []CensusBin
	Pipeline *mr.Pipeline
}

// Census runs find-triangles, count-per-node, and histogram as an
// N=3-round pipeline over the data graph.
func Census(s *PartitionSchema, g *graphs.Graph, cfg mr.Config) (CensusResult, error) {
	find := findTrianglesJob(s, cfg)

	perNode := &mr.Job[Triangle, int, int64, NodeCount]{
		Name: "triangles-per-node",
		Map: func(t Triangle, emit func(int, int64)) {
			emit(t.U, 1)
			emit(t.V, 1)
			emit(t.W, 1)
		},
		Combine: func(_ int, vs []int64) []int64 {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			return []int64{sum}
		},
		Reduce: func(node int, vs []int64, emit func(NodeCount)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(NodeCount{Node: node, Triangles: sum})
		},
		Config: cfg,
	}

	histogram := &mr.Job[NodeCount, int64, int64, CensusBin]{
		Name: "census-histogram",
		Map: func(nc NodeCount, emit func(int64, int64)) {
			emit(nc.Triangles, 1)
		},
		Combine: func(_ int64, vs []int64) []int64 {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			return []int64{sum}
		},
		Reduce: func(count int64, vs []int64, emit func(CensusBin)) {
			var nodes int64
			for _, v := range vs {
				nodes += v
			}
			emit(CensusBin{Triangles: count, Nodes: nodes})
		},
		Config: cfg,
	}

	// Rounds 1-2 need the intermediate per-node counts as well as the
	// final bins, so the pipeline is split after round 2.
	midAny, pipe, err := mr.RunPipeline(g.Edges, mr.RoundOf(find), mr.RoundOf(perNode))
	if err != nil {
		return CensusResult{}, err
	}
	counts := midAny.([]NodeCount)
	binsAny, pipe3, err := mr.RunPipeline(counts, mr.RoundOf(histogram))
	if err != nil {
		return CensusResult{}, err
	}
	pipe.Rounds = append(pipe.Rounds, pipe3.Rounds...)
	return CensusResult{
		PerNode:  counts,
		Bins:     binsAny.([]CensusBin),
		Pipeline: pipe,
	}, nil
}

// findTrianglesJob is the Section 4 partition algorithm as a reusable
// round, shared by Run and Census. Each triangle is produced exactly
// once, by the reducer whose bucket triple equals the triangle's own
// bucket multiset.
func findTrianglesJob(s *PartitionSchema, cfg mr.Config) *mr.Job[graphs.Edge, int, graphs.Edge, Triangle] {
	return &mr.Job[graphs.Edge, int, graphs.Edge, Triangle]{
		Name: fmt.Sprintf("triangles-partition(n=%d,k=%d)", s.N, s.K),
		Map: func(e graphs.Edge, emit func(int, graphs.Edge)) {
			s.forEachCell(e.U, e.V, func(cell int) { emit(cell, e) })
		},
		Reduce: func(cell int, edges []graphs.Edge, emit func(Triangle)) {
			s.localTriangles(cell, edges, func(u, v, w int) { emit(Triangle{u, v, w}) })
		},
		// The schema's reducer cells are an explicit layout: route each
		// cell to the shuffle partition of its own index so partition
		// skew reflects the bucket-triple populations.
		ShufflePartition: func(cell int) int { return cell },
		Config:           cfg,
	}
}
