package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json: the contract the driver holds the
// benchmark to, and the only place the bounds live.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selfCheck runs the suite twice on the same build, the second time with
// the workload order reversed, and fails if any end-to-end metric of any
// workload differs between the two sets by more than its bound: a bound
// the benchmark cannot hold against itself cannot judge a change.
func selfCheck(ctx context.Context, o options, root string, stdout io.Writer) error {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	o.trace = false
	printHeader(stdout, o)
	a, err := suite(ctx, o, workloadNames(false), stdout)
	if err != nil {
		return err
	}
	b, err := suite(ctx, o, workloadNames(true), stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nA/A: two sets of runs of the same build (second set in reverse order)\n")
	fmt.Fprintf(stdout, "| workload | metric | unit | A | B | differ by | bound | |\n|---|---|---|---|---|---|---|---|\n")
	var disagree int
	for _, name := range workloadNames(false) {
		for _, m := range bf.EndToEnd {
			va, vb := a[name].E2E[m.Name], b[name].E2E[m.Name]
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				name, m.Name, m.Unit, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between two runs of the same build: raise repetitions, not bounds", disagree)
	}
	return nil
}
