package problems

import (
	"math/rand"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

// BenchmarkJoinAggregate compares the two Section 7.1 plans.
func BenchmarkJoinAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := relation.Random("R", 30, 1000, rng, "A", "B")
	s := relation.Random("S", 30, 1000, rng, "B", "C")
	b.Run("naive", func(b *testing.B) {
		var res JoinAggregateResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = RunJoinAggregateNaive(r, s, 4, mr.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Pipeline.TotalPairsEmitted()), "comm")
	})
	b.Run("preagg", func(b *testing.B) {
		var res JoinAggregateResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = RunJoinAggregatePreAgg(r, s, 4, mr.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Pipeline.TotalPairsEmitted()), "comm")
	})
}
