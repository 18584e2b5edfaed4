package mr

import "fmt"

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
	runAny(in any) (out any, m Metrics, err error)
}

type jobRound[I any, K comparable, V, O any] struct {
	j *Job[I, K, V, O]
}

func (r jobRound[I, K, V, O]) roundName() string { return r.j.Name }

func (r jobRound[I, K, V, O]) runAny(in any) (any, Metrics, error) {
	ins, ok := in.([]I)
	if !ok {
		var want []I
		return nil, Metrics{}, fmt.Errorf("mr: round %q expects %T, got %T", r.j.Name, want, in)
	}
	outs, m, err := r.j.Run(ins)
	return outs, m, err
}

// RoundOf wraps a typed Job for use in RunPipeline.
func RoundOf[I any, K comparable, V, O any](j *Job[I, K, V, O]) Round {
	return jobRound[I, K, V, O]{j: j}
}

// RunPipeline executes an N-round pipeline through the partitioned
// executor, feeding each round's outputs to the next and recording every
// completed round's metrics. A failed round is not recorded; the error
// and the rounds completed before it are returned. The final value is
// the last round's output slice (assert it back to its concrete []O).
func RunPipeline(input any, rounds ...Round) (any, *Pipeline, error) {
	p := &Pipeline{}
	cur := input
	for _, r := range rounds {
		out, m, err := r.runAny(cur)
		if err != nil {
			return nil, p, err
		}
		p.Record(r.roundName(), m)
		cur = out
	}
	return cur, p, nil
}
