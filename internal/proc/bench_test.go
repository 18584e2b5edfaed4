package proc

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
)

// BenchmarkProcRound runs a full multi-process wordcount round under a
// small MemoryBudget and reports the realized worker-side residency
// high-water mark next to the bound the budget promises:
//
//	proc-peak-resident-pairs  worst buffered-pair count any worker saw
//	proc-peak-bound           8×budget + one staging block, or the
//	                          largest reduce group if that is bigger
//
// scripts/benchcmp gates peak <= bound on every artifact (absolute, no
// previous run needed), so a change that quietly re-materializes task
// output inside workers fails the bench job even if no test covers the
// exact path.
func BenchmarkProcRound(b *testing.B) {
	lines := genLines(240)
	const budget = 16
	for i := 0; i < b.N; i++ {
		outs, met, err := Run[string, string, int, wcOut]("wordcount", lines, Options{
			Plan:    engine.Plan{Workers: 2, Partitions: 5, MemoryBudget: budget},
			Timeout: 120 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(outs, refWordCount(lines, 5)) {
			b.Fatal("benchmark round diverges from reference")
		}
		bound := int64(8*budget + 16)
		if met.MaxReducerInput > bound {
			bound = met.MaxReducerInput
		}
		b.ReportMetric(float64(met.PeakResidentPairs), "proc-peak-resident-pairs")
		b.ReportMetric(float64(bound), "proc-peak-bound")
		b.ReportMetric(float64(met.BytesSpilled+met.IndexBytesSpilled)/(1<<20), "proc-spool-MB")
	}
}
