package main

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/hamming"
	"repro/internal/mr"
)

// allStrings enumerates the full b-bit universe.
func allStrings(b int) []uint64 {
	xs := make([]uint64, bitstr.Universe(b))
	for i := range xs {
		xs[i] = uint64(i)
	}
	return xs
}

// runFig1 regenerates Figure 1: the lower-bound hyperbola r = b/log2(q)
// and, as "dots", the Splitting algorithm executed at every c dividing b,
// showing that the measured replication rate sits exactly on the curve.
func runFig1() {
	const b = 12
	fmt.Printf("Figure 1 — Hamming-1 tradeoff for b=%d (r vs log2 q)\n", b)
	fmt.Printf("%6s %10s %14s %14s %14s %10s\n", "c", "log2(q)", "r measured", "r bound", "pairs found", "max q")

	inputs := allStrings(b)
	wantPairs := len(hamming.BruteForcePairs(inputs, 1))
	for _, c := range []int{1, 2, 3, 4, 6, 12} {
		s, err := hamming.NewSplittingSchema(b, c)
		if err != nil {
			panic(err)
		}
		pairs, met, err := hamming.RunSplitting(s, inputs, mr.Config{})
		if err != nil {
			panic(err)
		}
		logq := math.Log2(float64(met.MaxReducerInput))
		fmt.Printf("%6d %10.2f %14.4f %14.4f %9d/%d %10d\n",
			c, logq, met.ReplicationRate(), hamming.LowerBound(b, float64(met.MaxReducerInput)),
			len(pairs), wantPairs, met.MaxReducerInput)
	}
	fmt.Println("\nLower-bound curve samples (the hyperbola of Fig. 1):")
	for lg := 1.0; lg <= float64(b); lg++ {
		fmt.Printf("  log2(q)=%4.1f  r >= %.3f\n", lg, float64(b)/lg)
	}
}

// runWeight regenerates the Section 3.4/3.5 analysis: the weight-partition
// algorithm for q near 2^b, executed on the engine, with measured
// replication vs 1 + d/k and the measured max cell vs the corrected
// Stirling estimate and the paper's printed one.
func runWeight() {
	fmt.Println("Sections 3.4–3.5 — weight-partition algorithm (large q)")
	fmt.Printf("%4s %4s %4s %14s %12s %14s %16s %12s %12s %17s\n",
		"b", "d", "k", "r measured", "1 + d/k", "max cell", "Stirling est", "paper est", "log2(q)", "pairs found")
	for _, tc := range []struct{ b, d, k int }{
		{16, 2, 1}, {16, 2, 2}, {16, 2, 4},
		{16, 4, 1}, {16, 4, 2},
	} {
		s, err := hamming.NewWeightSchema(tc.b, tc.k, tc.d)
		if err != nil {
			panic(err)
		}
		pairs, met, err := hamming.RunWeight(s, allStrings(tc.b), mr.Config{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%4d %4d %4d %14.4f %12.4f %14d %16.0f %12.0f %12.2f %10d/%d\n",
			tc.b, tc.d, tc.k, met.ReplicationRate(), s.ExpectedReplication(),
			met.MaxReducerInput, s.PredictedMaxCell(), s.PaperPredictedMaxCell(),
			math.Log2(float64(met.MaxReducerInput)), len(pairs), hamming.NewProblem(tc.b).NumOutputs())
	}
	fmt.Println("\n(The paper's estimate is ~2^d below the Stirling one: it takes C(n, n/2) as 2^n/sqrt(2 pi n), half of 2^n*sqrt(2/(pi n)), in each of the d dimensions.)")
}

// runHDD regenerates the Section 3.6 distance-d analysis: Ball-2's q and
// per-reducer coverage, and the generalized Splitting algorithm's exact
// replication C(c,d) with its (ek/d)^d approximation.
func runHDD() {
	fmt.Println("Section 3.6 — Hamming distances d > 1")

	const b = 10
	inputs := allStrings(b)

	fmt.Println("\nBall-2 (one reducer per string, ball of radius 1):")
	ball := hamming.NewBallSchema(b)
	pairs, met, err := hamming.RunBall(ball, inputs, mr.Config{})
	if err != nil {
		panic(err)
	}
	want := len(hamming.BruteForcePairs(inputs, 2))
	fmt.Printf("  b=%d  q=%d  r=%.1f  outputs/reducer<=C(b,2)=%.0f  pairs %d/%d\n",
		b, ball.ReducerSize(), met.ReplicationRate(), ball.CoveredPerReducer(), len(pairs), want)
	fmt.Printf("  coverage per reducer is Θ(q²): %0.f vs (q/2)log2 q = %.1f — blocks the HD-1 bound argument\n",
		ball.CoveredPerReducer(), hamming.MaxCoverable(float64(ball.ReducerSize())))

	fmt.Println("\nGeneralized Splitting for distance ≤ d (delete d of c segments):")
	fmt.Printf("%4s %4s %4s %14s %14s %16s %12s\n", "b", "c", "d", "r = C(c,d)", "(ek/d)^d", "pairs found", "q")
	for _, tc := range []struct{ b, c, d int }{
		{10, 5, 2}, {12, 6, 2}, {12, 4, 2}, {12, 6, 3},
	} {
		in := allStrings(tc.b)
		s, err := hamming.NewSplittingDSchema(tc.b, tc.c, tc.d)
		if err != nil {
			panic(err)
		}
		got, m2, err := hamming.RunSplittingD(s, in, mr.Config{})
		if err != nil {
			panic(err)
		}
		wantD := len(hamming.BruteForcePairs(in, tc.d))
		approxR := math.Pow(math.E*float64(tc.c)/float64(tc.d), float64(tc.d))
		fmt.Printf("%4d %4d %4d %14.0f %14.1f %10d/%d %12d\n",
			tc.b, tc.c, tc.d, m2.ReplicationRate(), approxR, len(got), wantD, m2.MaxReducerInput)
	}
}

// runCost regenerates Example 1.1 / Section 1.2: with the HD-1 tradeoff
// curve f(q) = b/log2 q, the total cost a·f(q) + b·q (+ c·q²) and its
// optimal reducer size on three hypothetical clusters.
func runCost() {
	const b = 20
	f := func(q float64) float64 { return float64(b) / math.Log2(q) }
	fmt.Printf("Section 1.2 — cost model on the Hamming-1 curve f(q) = %d/log2(q)\n", b)
	fmt.Printf("%30s %14s %14s\n", "cluster (A, B, C)", "optimal q", "cost(q*)")
	for _, m := range []core.CostModel{
		{F: f, A: 1e6, B: 1},            // expensive communication
		{F: f, A: 1e4, B: 1},            // balanced
		{F: f, A: 1e4, B: 0.1, C: 1e-4}, // wall-clock (quadratic reducers)
	} {
		q, cost := m.OptimalQ(2, math.Exp2(b))
		fmt.Printf("%30s %14.0f %14.1f\n",
			fmt.Sprintf("(%.0g, %.2g, %.2g)", m.A, m.B, m.C), q, cost)
	}
	fmt.Println("\nHigher communication price pushes q* up (fewer, bigger reducers);")
	fmt.Println("a quadratic wall-clock term pushes q* back down, as Example 1.1 predicts.")
}
