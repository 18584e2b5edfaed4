package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from current output")

// TestAllExperimentsRun executes every experiment end to end, as
// `mrbounds all` does, and compares the combined output with
// testdata/all.golden: every table and figure is deterministic, so a
// changed number anywhere in the paper's regeneration fails here. Run
// with -update to rewrite the golden after an intended change.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	var all bytes.Buffer
	for _, e := range experiments() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			all.Write(captureStdout(t, e.runTitled))
		})
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("mrbounds all drifted from %s; rerun `go run ./cmd/mrbounds all` and diff it", path)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) []byte {
	path := filepath.Join(t.TempDir(), "stdout.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = old }()
		fn()
	}()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.name] {
			t.Errorf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.about == "" {
			t.Errorf("experiment %q has no description", e.name)
		}
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.name)
		}
	}
}
