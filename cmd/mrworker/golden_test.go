package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/runfiles.golden from the current run files")

// TestRunFilesGolden pins the bytes of the run files a job leaves in
// its directory, the input image (inputs.run) and every reduce output
// (out-pNNN-aNN.run), against testdata/runfiles.golden: one line per
// file with its name, length and SHA-256, for `-inputs 3000 -workers 4`
// with and without `-budget 16 -splitpairs 48`. Spool bytes are left
// out: where a map task's seals fall is the executor's business, its
// outputs are not. A retried task would leave a file under another
// attempt's name, so the runs must have none. go test -run
// TestRunFilesGolden -update rewrites the golden after an intended
// change.
func TestRunFilesGolden(t *testing.T) {
	cases := []struct {
		name           string
		budget, splits int
	}{
		{"plain", 0, 0},
		{"budget16-split48", 16, 48},
	}
	var got strings.Builder
	for _, tc := range cases {
		o := options{
			inputs: 3000, workers: 4, partitions: 8,
			budget: tc.budget, splitpairs: tc.splits,
			lease: 2 * time.Second, timeout: 90 * time.Second,
			dir: t.TempDir(),
		}
		_, met, err := run(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if met.TaskRetries != 0 {
			t.Fatalf("%s: %d task retries; the golden pins first attempts only", tc.name, met.TaskRetries)
		}
		outs, err := filepath.Glob(filepath.Join(o.dir, "out-p*-a*.run"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range append([]string{filepath.Join(o.dir, "inputs.run")}, outs...) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s/%s %d %x\n", tc.name, filepath.Base(path), len(data), sha256.Sum256(data))
		}
	}
	path := filepath.Join("testdata", "runfiles.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("run files differ from %s (rerun with -update after an intended change):\n%s", path, got.String())
	}
}
