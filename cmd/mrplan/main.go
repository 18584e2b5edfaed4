// Command mrplan is the Section 1.2 workflow as a tool: given a problem,
// its instance size, and a cluster's prices, it minimizes the total cost
// a·f(q) + b·q + c·q² over the problem's tradeoff curve r = f(q) and
// recommends the concrete algorithm configuration realizing the optimal
// reducer size. The families and their size settings come from
// internal/catalog.
//
// Usage:
//
//	mrplan -problem hamming  -bits 20            [-pa 1e4 -pb 1 -pc 0]
//	mrplan -problem triangle -nodes 1000         [-pa ... ]
//	mrplan -problem twopaths -nodes 1000
//	mrplan -problem matmul   -side 512
//
// Flags -pa, -pb, -pc are the communication, linear-compute, and
// quadratic (wall-clock) price coefficients. -density applies the
// Section 2.3 adjustment for inputs present with probability < 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
)

func main() {
	req := Request{}
	flag.StringVar(&req.Problem, "problem", "hamming", strings.Join(catalog.Names(), " | "))
	sizeOf := catalog.Flags(flag.CommandLine, func(f catalog.Family) []catalog.Setting {
		return []catalog.Setting{f.Size()}
	})
	flag.Float64Var(&req.PA, "pa", 1e4, "price per unit replication (communication)")
	flag.Float64Var(&req.PB, "pb", 1, "price per unit reducer size (linear compute)")
	flag.Float64Var(&req.PC, "pc", 0, "price per squared reducer size (wall clock)")
	flag.Float64Var(&req.Density, "density", 1, "probability an input is present (Section 2.3)")
	flag.Parse()

	f, p, err := sizeOf(req.Problem)
	if err == nil {
		req.Size = p[f.Size().Name]
		err = writePlan(req, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
}

// Request is one planning question: a problem family, its instance size
// (the family's size setting: bits, nodes or side), and the cluster's
// price coefficients.
type Request struct {
	Problem string  // a catalogue family name
	Size    int     // the family's instance size n
	PA      float64 // price per unit replication
	PB      float64 // price per unit reducer size
	PC      float64 // price per squared reducer size
	Density float64 // probability an input is present (Section 2.3)
}

// Plan is the planner's answer.
type Plan struct {
	OptimalQ       float64
	Replication    float64
	Cost           float64
	AssignableQ    float64 // hypothetical-input budget after density scaling
	Recommendation string
}

// buildPlan minimizes the Section 1.2 cost over the family's tradeoff
// curve and renders the family's algorithm recommendation at the optimum.
func buildPlan(req Request) (Plan, error) {
	f, err := catalog.Lookup(req.Problem)
	if err == nil {
		err = f.Size().Check(req.Size)
	}
	if err != nil {
		return Plan{}, fmt.Errorf("mrplan: %w", err)
	}
	n := req.Size
	curve := func(q float64) float64 { return f.Curve(n, q) }
	q, cost := core.CostModel{F: curve, A: req.PA, B: req.PB, C: req.PC}.OptimalQ(f.QRange(n))
	_, recommendation := f.Recommend(n, q)
	return Plan{
		OptimalQ:       q,
		Replication:    curve(q),
		Cost:           cost,
		AssignableQ:    core.ScaledQ(q, req.Density),
		Recommendation: recommendation,
	}, nil
}

// writePlan renders the planner's full answer for req onto w — the
// exact text the command prints, which the golden tests pin.
func writePlan(req Request, w io.Writer) error {
	plan, err := buildPlan(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "problem: %s   prices: a=%.3g b=%.3g c=%.3g\n", req.Problem, req.PA, req.PB, req.PC)
	fmt.Fprintf(w, "optimal reducer size q* = %.0f   replication r(q*) = %.3f   cost = %.4g\n",
		plan.OptimalQ, plan.Replication, plan.Cost)
	if req.Density < 1 && req.Density > 0 {
		fmt.Fprintf(w, "with input density %.3g, assign up to %.0f hypothetical inputs per reducer (Section 2.3)\n",
			req.Density, plan.AssignableQ)
	}
	fmt.Fprintln(w, "recommended:", plan.Recommendation)
	return nil
}
