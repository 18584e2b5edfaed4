package problems

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/relation"
)

func TestJoinProblemModel(t *testing.T) {
	p := NewJoinProblem(3, 4, 5)
	if p.NumInputs() != 3*4+4*5 {
		t.Errorf("|I| = %d, want 32", p.NumInputs())
	}
	if p.NumOutputs() != 60 {
		t.Errorf("|O| = %d, want 60", p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		if len(inputs) != 2 {
			t.Fatalf("join output depends on %d inputs, want 2", len(inputs))
		}
		count++
		return true
	})
	if count != 60 {
		t.Errorf("enumerated %d outputs, want 60", count)
	}
}

func TestHashJoinSchemaValidAndReplicationOne(t *testing.T) {
	p := NewJoinProblem(3, 4, 5)
	for _, k := range []int{1, 2, 4} {
		s, err := NewHashJoinSchema(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Validate(p, s, 0); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		st := core.Measure(p, s)
		if st.ReplicationRate != 1 {
			t.Errorf("k=%d: r = %v, want exactly 1 (join keyed on B is embarrassingly parallel)", k, st.ReplicationRate)
		}
	}
}

func TestHashJoinSchemaRejectsBadK(t *testing.T) {
	p := NewJoinProblem(3, 4, 5)
	if _, err := NewHashJoinSchema(p, 0); err == nil {
		t.Error("k=0 rejected")
	}
	if _, err := NewHashJoinSchema(p, 5); err == nil {
		t.Error("k > NB rejected")
	}
}

func TestGroupByProblemModel(t *testing.T) {
	p := NewGroupByProblem(4, 6)
	if p.NumInputs() != 24 || p.NumOutputs() != 4 {
		t.Errorf("|I|=%d |O|=%d, want 24 and 4", p.NumInputs(), p.NumOutputs())
	}
	count := 0
	p.ForEachOutput(func(inputs []int) bool {
		if len(inputs) != 6 {
			t.Fatalf("group depends on %d inputs, want NB=6", len(inputs))
		}
		count++
		return true
	})
	if count != 4 {
		t.Errorf("enumerated %d groups, want 4", count)
	}
}

func TestGroupBySchemaReplicationOne(t *testing.T) {
	p := NewGroupByProblem(4, 6)
	s := GroupBySchema{P: p}
	if err := core.Validate(p, s, 6); err != nil {
		t.Errorf("group-by schema invalid: %v", err)
	}
	st := core.Measure(p, s)
	if st.ReplicationRate != 1 {
		t.Errorf("r = %v, want 1", st.ReplicationRate)
	}
	if st.MaxReducerLoad != 6 {
		t.Errorf("q = %d, want NB = 6", st.MaxReducerLoad)
	}
	// Below q = NB the schema is infeasible (footnote-3 analogue).
	if err := core.Validate(p, s, 5); err == nil {
		t.Error("q < NB should be rejected")
	}
}

func TestWordCountProblemReplicationOne(t *testing.T) {
	p := WordCountProblem{V: 5, P: 8}
	s := WordCountSchema{P: p}
	if err := core.Validate(p, s, p.P); err != nil {
		t.Errorf("word-count schema invalid: %v", err)
	}
	st := core.Measure(p, s)
	if st.ReplicationRate != 1 {
		t.Errorf("r = %v, want exactly 1: no tradeoff (Example 2.5)", st.ReplicationRate)
	}
}

func TestJoinAggregateBothStrategiesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	r := relation.Random("R", 8, 40, rng, "A", "B")
	s := relation.Random("S", 8, 40, rng, "B", "C")
	want := SerialJoinAggregate(r, s)

	naive, err := RunJoinAggregateNaive(r, s, 4, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(naive.Sums, want) {
		t.Errorf("naive sums differ: %v vs %v", naive.Sums, want)
	}
	pre, err := RunJoinAggregatePreAgg(r, s, 4, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre.Sums, want) {
		t.Errorf("pre-agg sums differ: %v vs %v", pre.Sums, want)
	}
}

func TestJoinAggregatePreAggSavesRound2Communication(t *testing.T) {
	// A skewed workload where the join is much larger than the A-domain:
	// pre-aggregation must shrink round-2 communication strictly.
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	for i := 0; i < 30; i++ {
		r.Add(i%3, i%5) // A-domain of 3, joining heavily
	}
	for i := 0; i < 30; i++ {
		s.Add(i%5, i)
	}
	naive, err := RunJoinAggregateNaive(r, s, 2, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := RunJoinAggregatePreAgg(r, s, 2, mr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	naiveR2 := naive.Pipeline.Rounds[1].Metrics.PairsEmitted
	preR2 := pre.Pipeline.Rounds[1].Metrics.PairsEmitted
	if preR2 >= naiveR2 {
		t.Errorf("pre-agg round-2 comm %d should beat naive %d", preR2, naiveR2)
	}
	// Round-1 communication is identical (same join shuffle).
	if naive.Pipeline.Rounds[0].Metrics.PairsEmitted != pre.Pipeline.Rounds[0].Metrics.PairsEmitted {
		t.Error("round-1 communication should be identical")
	}
	if !reflect.DeepEqual(naive.Sums, pre.Sums) {
		t.Error("strategies disagree")
	}
}

// Property: both join-aggregate strategies agree with the serial result
// on random instances.
func TestPropertyJoinAggregateAgree(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := relation.Random("R", 5, 15, rng, "A", "B")
		s := relation.Random("S", 5, 15, rng, "B", "C")
		k := int(kRaw%4) + 1
		want := SerialJoinAggregate(r, s)
		naive, err := RunJoinAggregateNaive(r, s, k, mr.Config{})
		if err != nil || !reflect.DeepEqual(naive.Sums, want) {
			return false
		}
		pre, err := RunJoinAggregatePreAgg(r, s, k, mr.Config{})
		return err == nil && reflect.DeepEqual(pre.Sums, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hash-join replication is exactly 1 for any bucket count.
func TestPropertyHashJoinReplicationOne(t *testing.T) {
	f := func(na, nb, nc, kRaw uint8) bool {
		p := NewJoinProblem(int(na%4)+1, int(nb%4)+1, int(nc%4)+1)
		s, err := NewHashJoinSchema(p, int(kRaw)%p.NB+1)
		return err == nil && core.Measure(p, s).ReplicationRate == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
