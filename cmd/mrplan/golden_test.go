package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRequests pins one representative planning question per problem
// family. The planner is pure math over deterministic inputs, so its
// full rendered output is stable and golden-testable.
var goldenRequests = map[string]Request{
	"hamming":  {Problem: "hamming", Size: 20, PA: 1e4, PB: 1, Density: 1},
	"triangle": {Problem: "triangle", Size: 1000, PA: 1e4, PB: 1, Density: 1},
	"twopaths": {Problem: "twopaths", Size: 1000, PA: 1e4, PB: 1, Density: 0.5},
	"matmul":   {Problem: "matmul", Size: 512, PA: 1e4, PB: 1, PC: 0.01, Density: 1},
}

func TestGoldenPlans(t *testing.T) {
	for name, req := range goldenRequests {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writePlan(req, &buf); err != nil {
				t.Fatalf("writePlan: %v", err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestGoldenOutOfRangeBits(t *testing.T) {
	// The error path is part of the contract too: out-of-range bits
	// must fail with the documented message and write nothing.
	var buf bytes.Buffer
	err := writePlan(Request{Problem: "hamming", Size: 70, PA: 1e4, PB: 1, Density: 1}, &buf)
	if err == nil {
		t.Fatal("bits=70 should be rejected (limit 62)")
	}
	if got, want := err.Error(), "mrplan: need 1 <= bits <= 62, got 70"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected request still wrote output: %q", buf.String())
	}
}
