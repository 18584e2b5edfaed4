package mr

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/proc"
	"repro/internal/shuffle"
)

// TestConfigSurface is the configuration ratchet: it pins the field
// count of every struct a round's settings pass through, and the total
// of independently settable values with the engine.Plan the executors
// share counted once. A count is raised only in the open — in the PR
// that needs the field, with its reason stated there — and lowered
// whenever a field is deleted. A new knob must earn its place.
func TestConfigSurface(t *testing.T) {
	plan := reflect.TypeOf(engine.Plan{})
	total := 0
	for _, c := range []struct {
		typ   reflect.Type
		want  int
		embed bool // the first field is the embedded Plan
	}{
		{reflect.TypeOf(Config{}), 12, false},
		{plan, 7, false},
		{reflect.TypeOf(engine.Config{}), 4, true}, // Plan + 3 in-process-only
		{reflect.TypeOf(proc.Options{}), 9, true},  // Plan + 8 process lifecycle
		{reflect.TypeOf(proc.Task{}), 9, false},    // per-task only: no job-wide setting
		{reflect.TypeOf(shuffle.Options{}), 5, false},
	} {
		n := c.typ.NumField()
		if n != c.want {
			t.Errorf("%v has %d fields, pinned at %d", c.typ, n, c.want)
		}
		if c.embed {
			if f := c.typ.Field(0); !f.Anonymous || f.Type != plan {
				t.Errorf("%v does not embed engine.Plan first", c.typ)
			}
			n--
		}
		total += n
	}
	if total != 44 {
		t.Errorf("%d independently settable configuration values, pinned at 44", total)
	}
}
