package hamming

import (
	"fmt"
	"testing"

	"repro/internal/mr"
)

// BenchmarkSplitting measures the Section 3.3 algorithm across the
// replication/parallelism knob c.
func BenchmarkSplitting(b *testing.B) {
	inputs := allStrings(12)
	for _, c := range []int{1, 2, 3, 4, 6} {
		s, err := NewSplittingSchema(12, c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RunSplitting(s, inputs, mr.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBruteForce is the serial all-pairs baseline the distributed
// algorithms are compared against.
func BenchmarkBruteForce(b *testing.B) {
	inputs := allStrings(10)
	for i := 0; i < b.N; i++ {
		_ = BruteForcePairs(inputs, 1)
	}
}

// BenchmarkBall2 measures the distance-2 ball algorithm.
func BenchmarkBall2(b *testing.B) {
	inputs := allStrings(10)
	s := NewBallSchema(10)
	for i := 0; i < b.N; i++ {
		if _, _, err := RunBall(s, inputs, mr.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplittingD measures the generalized Splitting algorithm of
// Section 3.6 for distance <= 2 (b = 10, c = 5 segments, d = 2 deleted).
func BenchmarkSplittingD(b *testing.B) {
	inputs := allStrings(10)
	s, err := NewSplittingDSchema(10, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := RunSplittingD(s, inputs, mr.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightRun measures the large-q weight-partition join.
func BenchmarkWeightRun(b *testing.B) {
	inputs := allStrings(12)
	s, err := NewWeightSchema(12, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := RunWeight(s, inputs, mr.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaMeasure isolates the structural model cost (assignment
// enumeration without the engine).
func BenchmarkSchemaMeasure(b *testing.B) {
	s, err := NewSplittingSchema(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	p := NewProblem(16)
	for i := 0; i < b.N; i++ {
		for in := 0; in < p.NumInputs(); in++ {
			_ = s.Assign(in)
		}
	}
}
