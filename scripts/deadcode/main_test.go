package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testModule is a small module with one declaration of each kind the
// checker decides: a dead exported function and the helper only it
// calls, a method that satisfies fmt.Stringer, a method nothing selects,
// a generic method reached through Box[int], a generic function, a type
// registered with net/rpc, a //go:build file pair, a function only a
// blank variable's initializer calls, and a type only compile-time
// assertions name.
const testModule = "testdata/mod"

// loadTestModule loads the test module once: loading type-checks the
// standard library from source, a few seconds each time.
var loadTestModule = sync.OnceValues(func() ([]Decl, error) { return Unreachable(testModule) })

func TestUnreachable(t *testing.T) {
	dead, err := loadTestModule()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, d := range dead {
		ids = append(ids, d.ID)
	}
	want := []string{"lib.Dead", "lib.helper", "lib.Str.NeverCalled", "lib.Asserted", "lib.Asserted.String"}
	if !slices.Equal(ids, want) {
		t.Fatalf("unreachable = %v, want %v", ids, want)
	}
	if d := dead[0]; d.File != "lib/lib.go" || d.Line != 10 {
		t.Errorf("lib.Dead at %s:%d, want lib/lib.go:10", d.File, d.Line)
	}
}

// TestRunAllowlist drives the whole check: a complete allowlist passes,
// and a missing, stale, unknown-kind or reasonless entry, or a list over
// its ceiling, fails the run with a message naming it.
func TestRunAllowlist(t *testing.T) {
	const complete = `# comment
lib.Dead oracle compared against by TestDead
lib.helper roadmap only lib.Dead calls it
lib.Str.NeverCalled reflection kept for the test
lib.Asserted oracle kept for the test
lib.Asserted.String oracle kept for the test
`
	dead, err := loadTestModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, allow string
		ceiling     int
		want        string // substring of the error; empty: pass
	}{
		{"complete", complete, 5, ""},
		{"package entry", "lib test-support the whole package\n", 1, ""},
		{"unreachable function added", strings.Replace(complete, "lib.Dead oracle compared against by TestDead\n", "", 1), 5,
			"lib/lib.go:10: lib.Dead has no production caller"},
		{"stale entry", complete + "lib.Live roadmap reachable from main\n", 6, "lib.Live is stale"},
		{"deleted entry", complete + "lib.Gone roadmap no such declaration\n", 6, "lib.Gone is stale"},
		{"unknown kind", strings.Replace(complete, "roadmap", "later", 1), 5, `kind "later"`},
		{"no reason", strings.Replace(complete, "roadmap only lib.Dead calls it", "roadmap", 1), 5, "lib.helper gives no reason"},
		{"over ceiling", complete, 4, "over its ceiling of 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "allow.txt")
			if err := os.WriteFile(path, []byte(tc.allow), 0o644); err != nil {
				t.Fatal(err)
			}
			err := check(io.Discard, dead, path, tc.ceiling, false)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("run failed: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("run passed, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("run error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
