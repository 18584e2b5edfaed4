package mr

import (
	"fmt"

	"repro/internal/engine"
)

// RoundMetrics pairs a round name with the metrics it produced, so that
// multi-round pipelines (such as the two-phase matrix multiplication of
// Section 6.3 of the paper) can report per-phase and total communication.
type RoundMetrics struct {
	Name    string
	Metrics Metrics
}

// Pipeline accumulates the metrics of a sequence of rounds. The total
// communication of a pipeline is the sum over rounds of the pairs shuffled
// between that round's map and reduce phases, which is how the paper sums
// the cost of the two-phase matrix multiplication.
type Pipeline struct {
	Rounds []RoundMetrics
}

// Record appends one executed round.
func (p *Pipeline) Record(name string, m Metrics) {
	p.Rounds = append(p.Rounds, RoundMetrics{Name: name, Metrics: m})
}

// TotalPairsEmitted is the total communication before combining.
func (p *Pipeline) TotalPairsEmitted() int64 {
	var total int64
	for _, r := range p.Rounds {
		total += r.Metrics.PairsEmitted
	}
	return total
}

// Round is one typed job in an N-round pipeline, obtained from RoundOf.
// The interface hides the job's type parameters so rounds with different
// intermediate types can share one slice; RunPipeline checks at run time
// that each round's input type matches its predecessor's output.
type Round interface {
	roundName() string
	procMode() bool
	// runAny runs the round over in: a []I, or the kept outputs of the
	// in-process round before it. With keep an in-process round keeps
	// its outputs as an image for the next round instead of a slice.
	runAny(in any, keep bool) (out any, m Metrics, err error)
}

type jobRound[I any, K comparable, V, O any] struct {
	j *Job[I, K, V, O]
}

// kept is an in-process round's outputs on their way to the next round,
// as the image its reduce units left them in.
type kept[O any] struct{ im *engine.Image[O] }

// asSlice is a []O for RunPipeline's type-mismatch message.
func (kept[O]) asSlice() any { return []O(nil) }

func (r jobRound[I, K, V, O]) roundName() string { return r.j.Name }

func (r jobRound[I, K, V, O]) procMode() bool { return r.j.Config.ProcMode }

func (r jobRound[I, K, V, O]) runAny(in any, keep bool) (any, Metrics, error) {
	j := r.j
	var out any
	var met Metrics
	var err error
	switch in := in.(type) {
	case []I:
		if j.Config.ProcMode {
			out, met, err = j.runProc(in)
		} else {
			out, met, err = j.runEngine(engine.SliceImage(in), keep)
		}
	case kept[I]:
		out, met, err = j.runEngine(in.im, keep)
	default:
		if k, ok := in.(interface{ asSlice() any }); ok {
			in = k.asSlice()
		}
		var want []I
		return nil, Metrics{}, fmt.Errorf("mr: round %q expects %T, got %T", j.Name, want, in)
	}
	if err != nil {
		return nil, met, err
	}
	return out, met, nil
}

// RoundOf wraps a typed Job for use in RunPipeline.
func RoundOf[I any, K comparable, V, O any](j *Job[I, K, V, O]) Round {
	return jobRound[I, K, V, O]{j: j}
}

// RunPipeline executes an N-round pipeline through the partitioned
// executor, feeding each round's outputs to the next and recording every
// completed round's metrics. An in-process round hands its outputs to an
// in-process successor in place, as the image its reduce units collected
// (engine.Image): the next round's map tasks read their record ranges
// out of it, and no slice of an intermediate round's outputs is built.
// Only the last round, or one followed by a ProcMode round, copies its
// outputs into a slice. A failed round is not recorded; the error and
// the rounds completed before it are returned. The final value is the
// last round's output slice (assert it back to its concrete []O).
func RunPipeline(input any, rounds ...Round) (any, *Pipeline, error) {
	p := &Pipeline{}
	cur := input
	for i, r := range rounds {
		keep := i+1 < len(rounds) && !rounds[i+1].procMode()
		out, m, err := r.runAny(cur, keep)
		if err != nil {
			return nil, p, err
		}
		p.Record(r.roundName(), m)
		cur = out
	}
	return cur, p, nil
}
