package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// TestRunAllFamilies runs each problem family small with the recorder
// armed and checks the exported artifacts: the trace must be valid
// Chrome trace JSON (balanced spans, monotone timestamps per lane) and
// the metrics snapshot must carry the round counters.
func TestRunAllFamilies(t *testing.T) {
	cases := []options{
		{problem: "hamming", params: catalog.Params{"bits": 8, "c": 2, "inputs": 256}},
		{problem: "triangle", params: catalog.Params{"nodes": 60, "edges": 240, "k": 3}},
		{problem: "twopaths", params: catalog.Params{"nodes": 60, "edges": 240, "k": 4}},
		{problem: "matmul", params: catalog.Params{"side": 12, "s": 4, "t": 4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.problem, func(t *testing.T) {
			dir := t.TempDir()
			tc.seed = 1
			tc.workers = 2
			tc.budget = 64 // force spilling so spill spans appear
			tc.ringCap = obs.DefaultRingCap
			tc.out = filepath.Join(dir, "trace.json")
			tc.metrics = filepath.Join(dir, "metrics.prom")

			var sb strings.Builder
			if err := run(tc, &sb); err != nil {
				t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
			}

			data, err := os.ReadFile(tc.out)
			if err != nil {
				t.Fatalf("trace not written: %v", err)
			}
			if err := obs.ValidateTrace(data); err != nil {
				t.Errorf("invalid trace: %v", err)
			}
			for _, want := range []string{"phase:map", "phase:reduce", "map-task"} {
				if !strings.Contains(string(data), want) {
					t.Errorf("trace missing %q spans", want)
				}
			}

			prom, err := os.ReadFile(tc.metrics)
			if err != nil {
				t.Fatalf("metrics not written: %v", err)
			}
			wantRounds := "mr_rounds_total 1"
			if tc.problem == "matmul" { // two-phase pipeline: two rounds
				wantRounds = "mr_rounds_total 2"
			}
			for _, want := range []string{wantRounds, "mr_pairs_emitted_total", "mr_reducer_input_size_count"} {
				if !strings.Contains(string(prom), want) {
					t.Errorf("metrics missing %q in:\n%s", want, prom)
				}
			}
		})
	}
}

func TestRunRejectsUnknownProblem(t *testing.T) {
	var sb strings.Builder
	if err := run(options{problem: "nope", out: filepath.Join(t.TempDir(), "t.json")}, &sb); err == nil {
		t.Fatal("run accepted unknown problem")
	}
}
