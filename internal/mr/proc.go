// ProcMode: the bridge from the Job veneer to the multi-process
// executor (internal/proc). The same Job definition runs either
// in-process on the shuffle engine or across worker processes with
// lease-fenced scheduling and kill -9 recovery; outputs are identical.
package mr

import (
	"fmt"

	"repro/internal/proc"
)

// RegisterProc registers the job for ProcMode execution under its
// Name. Because ProcMode forks worker processes that must execute the
// same code as the driver, registration has to happen in BOTH roles —
// call it from package init or early in main, before Job.Run in the
// driver and before MaybeProcWorker in the worker (normally the same
// binary, so one call site covers both).
//
// The job's Map, Reduce (or ReduceBatch) and Combine carry over
// directly; ShufflePartition, when set, becomes the cross-process
// placement function and must be a pure function of the key.
func RegisterProc[I any, K comparable, V, O any](j *Job[I, K, V, O]) {
	reduce := j.Reduce
	batch := false
	if reduce == nil {
		// A ReduceBatch job promises not to retain the values slice, so
		// the proc reduce worker is told it may reuse one decode arena
		// across keys (the batch contract's whole point).
		reduce = j.ReduceBatch
		batch = true
	}
	proc.Register(proc.JobSpec[I, K, V, O]{
		Name:        j.Name,
		Map:         j.Map,
		Reduce:      reduce,
		Combine:     j.Combine,
		Partition:   j.ShufflePartition,
		BatchReduce: batch,
	})
}

// MaybeProcWorker hands the process over to the ProcMode worker loop
// when the worker environment is set, and never returns in that case.
// Binaries that run ProcMode jobs with the default worker command (the
// current binary re-executed) must call it early in main, after their
// RegisterProc calls.
func MaybeProcWorker() { proc.MaybeWorker() }

// runProc executes the job on the multi-process executor under the same
// plan the in-process engine would run, and maps the proc run's metrics
// into the mr.Metrics shape. A setting only the in-process engine has is
// a configuration error, before any worker spawns. Fields that only
// exist in-process (partition profile, spill pressure) stay zero;
// BytesSpilled/IndexBytesSpilled/DiskBytesRead here are real bytes over
// the process boundary — the spool files that carried the shuffle — and
// PeakResidentPairs is the worst buffered-pair high-water mark any
// worker's task attempt observed, the same bound Config.MemoryBudget
// enforces in-process.
func (j *Job[I, K, V, O]) runProc(inputs []I) ([]O, Metrics, error) {
	c := j.Config
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"SpillDir", c.SpillDir != ""},
		{"FailureEveryN", c.FailureEveryN > 0},
		{"MaxRetries", c.MaxRetries > 0},
	} {
		if f.set {
			return nil, Metrics{}, fmt.Errorf("mr: job %q sets Config.%s, which only the in-process executor honours; unset it for ProcMode", j.Name, f.name)
		}
	}
	outs, pm, err := proc.Run[I, K, V, O](j.Name, inputs, proc.Options{
		Plan: c.plan(),
		Dir:  c.ProcDir,
	})
	return outs, Metrics{
		MapInputs:         pm.MapInputs,
		PairsEmitted:      pm.PairsEmitted,
		PairsShuffled:     pm.PairsShuffled,
		Reducers:          pm.Reducers,
		MaxReducerInput:   pm.MaxReducerInput,
		TotalReducerInput: pm.PairsShuffled,
		Outputs:           pm.Outputs,
		MapRetries:        pm.MapRetries,
		ReduceRetries:     pm.ReduceRetries,
		TaskRetries:       pm.MapRetries + pm.ReduceRetries,
		WorkerDeaths:      pm.WorkerDeaths,
		LeaseExpirations:  pm.LeaseExpirations,
		SalvagedTasks:     pm.SalvagedTasks,
		BytesSpilled:      pm.BytesSpilled,
		IndexBytesSpilled: pm.IndexBytesSpilled,
		DiskBytesRead:     pm.DiskBytesRead,
		PeakResidentPairs: pm.PeakResidentPairs,
		ReduceRanges:      pm.ReduceRanges,
	}, err
}
