package triangle

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graphs"
	"repro/internal/mr"
	"repro/internal/obs"
)

func TestCensusThreeRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graphs.GNM(60, 240, rng)
	schema, err := NewPartitionSchema(60, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Census(schema, g, mr.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pipeline.Rounds) != 3 {
		t.Fatalf("pipeline recorded %d rounds, want 3", len(res.Pipeline.Rounds))
	}

	// Serial baseline: per-node membership counts from the raw triangles.
	wantPerNode := make(map[int]int64)
	var wantTotal int64
	for _, tr := range g.Triangles() {
		wantTotal++
		wantPerNode[tr[0]]++
		wantPerNode[tr[1]]++
		wantPerNode[tr[2]]++
	}

	gotPerNode := make(map[int]int64)
	for _, nc := range res.PerNode {
		gotPerNode[nc.Node] = nc.Triangles
	}
	if len(gotPerNode) != len(wantPerNode) {
		t.Fatalf("census covers %d nodes, want %d", len(gotPerNode), len(wantPerNode))
	}
	for node, want := range wantPerNode {
		if gotPerNode[node] != want {
			t.Errorf("node %d: %d triangles, want %d", node, gotPerNode[node], want)
		}
	}

	// Sum of node-count incidences = 3 · number of triangles, and the
	// histogram must bin every counted node.
	var incidences, binned int64
	for _, nc := range res.PerNode {
		incidences += nc.Triangles
	}
	if incidences != 3*wantTotal {
		t.Errorf("incidences = %d, want %d", incidences, 3*wantTotal)
	}
	for _, b := range res.Bins {
		binned += b.Nodes
	}
	if binned != int64(len(wantPerNode)) {
		t.Errorf("histogram bins %d nodes, want %d", binned, len(wantPerNode))
	}

	// Round 1's replication rate is k (each edge goes to k reducers).
	r1 := res.Pipeline.Rounds[0].Metrics
	if r := r1.ReplicationRate(); r != 4 {
		t.Errorf("round-1 replication rate = %v, want exactly k=4", r)
	}
	// Rounds 2 and 3 use combiners: shuffled <= emitted.
	for _, i := range []int{1, 2} {
		m := res.Pipeline.Rounds[i].Metrics
		if m.PairsShuffled > m.PairsEmitted {
			t.Errorf("round %d shuffled %d > emitted %d", i+1, m.PairsShuffled, m.PairsEmitted)
		}
	}
}

func TestCensusEmptyGraph(t *testing.T) {
	g := graphs.New(10, nil)
	schema, err := NewPartitionSchema(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Census(schema, g, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 0 || len(res.Bins) != 0 {
		t.Errorf("empty graph census: %+v", res)
	}
}

// TestCensusAssemblesLastRoundOnly: traced, the census copies outputs
// into a slice only at the end of each of its two pipeline calls —
// after rounds 2 and 3. Round 1's triangles go to round 2 in place, so
// its reduce phase holds no output-assemble span.
func TestCensusAssemblesLastRoundOnly(t *testing.T) {
	g := graphs.GNM(40, 160, rand.New(rand.NewSource(36)))
	schema, err := NewPartitionSchema(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	if _, err := Census(schema, g, mr.Config{Workers: 2, Partitions: 4, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	// Per reduce phase on the round lane, in order: whether it held an
	// output-assemble span.
	var assembled []bool
	for _, ls := range rec.Snapshot() {
		if ls.Kind != obs.LaneRound {
			continue
		}
		for _, ev := range ls.Events {
			switch {
			case ev.Kind == obs.KindBegin && ev.Op == obs.OpPhaseReduce:
				assembled = append(assembled, false)
			case ev.Kind == obs.KindEnd && ev.Op == obs.OpOutputAssemble:
				assembled[len(assembled)-1] = true
			}
		}
	}
	if want := []bool{false, true, true}; !slices.Equal(assembled, want) {
		t.Errorf("output-assemble per round %v, want %v", assembled, want)
	}
}
