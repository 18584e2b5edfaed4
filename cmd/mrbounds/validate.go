package main

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/hamming"
	"repro/internal/problems"
)

// runValidate exhaustively checks the paper's two mapping-schema
// constraints (reducer size and output coverage) for every implemented
// schema on small complete instances — the repository's structural
// self-check. The catalogue families come first, on each family's small
// instance; the schemas outside the catalogue follow.
func runValidate() {
	fmt.Println("Schema validation — Section 2.2 constraints on complete instances")
	fmt.Printf("%-44s %10s %10s %8s\n", "schema", "q", "r", "valid")

	check := func(name string, p core.Problem, s core.MappingSchema, q int) {
		st := core.Measure(p, s)
		err := core.Validate(p, s, q)
		status := "ok"
		if err != nil {
			status = "FAIL: " + err.Error()
		}
		fmt.Printf("%-44s %10d %10.3f %8s\n", name, st.MaxReducerLoad, st.ReplicationRate, status)
	}

	for _, f := range catalog.Families {
		n := f.Small[f.Size().Name]
		p := f.Problem(n)
		for _, params := range f.Validate {
			s := must(f.NewSchema(n, params))
			check(f.Row(n, params), p, s, catalog.SizeLimit(s))
		}
	}

	hb := 10
	hp := hamming.NewProblem(hb)
	check(fmt.Sprintf("hamming pairs (q=2) b=%d", hb), hp, hamming.NewPairSchema(hb), 2)
	check(fmt.Sprintf("hamming weight b=%d k=1 d=2", hb), hp, must(hamming.NewWeightSchema(hb, 1, 2)), 0)
	check(fmt.Sprintf("hamming ball-2 b=%d", hb), hamming.NewDistanceProblem(hb, 2),
		hamming.NewBallSchema(hb), hb+1)
	sd := must(hamming.NewSplittingDSchema(hb, 5, 2))
	check(fmt.Sprintf("hamming splitting-d b=%d c=5 d=2", hb),
		hamming.NewDistanceProblem(hb, 2), sd, sd.ReducerSize())

	jp := problems.NewJoinProblem(4, 5, 6)
	check("join R(A,B)xS(B,C) hash on B", jp, must(problems.NewHashJoinSchema(jp, 5)), 0)

	gp := problems.NewGroupByProblem(5, 7)
	check("group-by-sum", gp, problems.GroupBySchema{P: gp}, 7)

	wp := problems.WordCountProblem{V: 6, P: 9}
	check("word count (occurrences)", wp, problems.WordCountSchema{P: wp}, 9)
}

// must unwraps a schema constructor's result; every row here is a fixed
// configuration, so an error is a bug.
func must[S any](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}
