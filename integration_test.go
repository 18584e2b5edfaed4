package repro

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mr"
)

// TestEndToEndSelectionWorkflow walks the paper's whole pipeline for
// every catalogue family: price the family's tradeoff curve with the
// Section 1.2 cost model to pick q*, realise q* as schema parameters with
// the family's rule, validate the schema against the Section 2.2
// constraints on the small complete instance, and execute it on the
// engine (with fault injection), checking that the measured replication
// is the schema's and sits on or above the Section 2.4 recipe bound at
// the measured reducer size.
func TestEndToEndSelectionWorkflow(t *testing.T) {
	for _, f := range catalog.Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			n := f.Small[f.Size().Name]
			recipe := f.Recipe(n)
			lo, hi := f.QRange(n)
			if !recipe.GOverQMonotone(lo, hi, 200) {
				t.Fatal("g(q)/q not monotone; recipe invalid")
			}

			// A balanced cluster: communication priced at 4× a unit of
			// reducer size.
			model := core.CostModel{F: func(q float64) float64 { return f.Curve(n, q) }, A: 4, B: 1}
			qStar, _ := model.OptimalQ(lo, hi)
			params, _ := f.Recommend(n, qStar)

			problem := f.Problem(n)
			schema, err := f.NewSchema(n, params)
			if err != nil {
				t.Fatalf("rule's parameters %v at q*=%.1f: %v", params, qStar, err)
			}
			if err := core.Validate(problem, schema, catalog.SizeLimit(schema)); err != nil {
				t.Fatalf("selected schema %v invalid: %v", params, err)
			}
			st := core.Measure(problem, schema)
			if f.Name == "hamming" {
				// Splitting sits exactly on the Theorem 3.2 bound.
				if lb := recipe.LowerBound(float64(st.MaxReducerLoad)); math.Abs(st.ReplicationRate-lb) > 1e-9 {
					t.Errorf("selected schema r = %v off the bound %v", st.ReplicationRate, lb)
				}
			}

			run := catalog.Params{}
			for k, v := range f.Small {
				run[k] = v
			}
			for k, v := range params {
				run[k] = v
			}
			rounds, err := f.Run(run, 1, mr.Config{FailureEveryN: 5, MaxRetries: 3})
			if err != nil {
				t.Fatal(err)
			}
			met := rounds[0].Metrics
			if r := met.ReplicationRate(); r != st.ReplicationRate {
				t.Errorf("measured r = %v, schema's r = %v", r, st.ReplicationRate)
			}
			q := float64(met.MaxReducerInput)
			if lb := recipe.LowerBound(q); met.ReplicationRate() < lb-1e-9 {
				t.Errorf("measured r = %v below the recipe bound %v at q = %v", met.ReplicationRate(), lb, q)
			}
			t.Logf("q* = %.1f → %v: r = %v, q = %v", qStar, params, met.ReplicationRate(), q)
		})
	}
}
