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
// The job registers as the same engine.Round the in-process engine
// runs, so Map, Reduce or ReduceBatch (ReduceBatch wins when both are
// set) and Combine carry over directly; ShufflePartition, when set,
// becomes the cross-process placement function and must be a pure
// function of the key.
func RegisterProc[I any, K comparable, V, O any](j *Job[I, K, V, O]) {
	proc.Register(j.round())
}

// MaybeProcWorker hands the process over to the ProcMode worker loop
// when the worker environment is set, and never returns in that case.
// Binaries that run ProcMode jobs with the default worker command (the
// current binary re-executed) must call it early in main, after their
// RegisterProc calls.
func MaybeProcWorker() { proc.MaybeWorker() }

// runProc executes the job on the multi-process executor under the same
// plan the in-process engine would run; the proc driver fills the
// round's Metrics. A setting only the in-process engine has is a
// configuration error, before any worker spawns.
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
	return proc.Run[I, K, V, O](j.Name, inputs, proc.Options{
		Plan: c.plan(),
		Dir:  c.ProcDir,
	})
}
