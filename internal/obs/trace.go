package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Chrome trace-event export. The output is the JSON object format
// ({"traceEvents":[...]}) understood by Perfetto and chrome://tracing.
// Lanes map onto the viewer's process/thread hierarchy: each LaneKind
// is a "process" (round / workers / partitions) and each lane a named
// "thread" inside it, so map-task spans on worker lanes visually
// overlap seal/fence/compact spans on partition lanes — SpillOverlapNs
// as geometry instead of a scalar.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"` // microseconds
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func lanePID(kind LaneKind) int { return int(kind) }

// WriteTrace exports a quiescent recorder's snapshot as Chrome
// trace-event JSON. Unmatched Begin events (spans cut off by a ring
// wrap or a crashed round) are dropped rather than emitted unbalanced,
// so the output always validates.
func WriteTrace(w io.Writer, r *Recorder) error {
	return writeTraceLanes(w, r.Snapshot())
}

// WriteTraceFile writes WriteTrace output to path atomically enough
// for post-mortems: the file appears complete or not at all (temp file
// + rename), so a worker process exporting its trace at exit can be
// killed without leaving a half-written JSON for tooling to choke on.
func WriteTraceFile(path string, r *Recorder) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteTrace(w, r) })
}

// writeFileAtomic writes path through a temp file in the same directory
// and a rename, so readers see the whole file or none of it.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".obs-*")
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

func writeTraceLanes(w io.Writer, lanes []LaneSnapshot) error {
	var evs []traceEvent

	// Metadata: name the processes after the lane kinds…
	seenKind := map[LaneKind]bool{}
	for _, ls := range lanes {
		if !seenKind[ls.Kind] {
			seenKind[ls.Kind] = true
			evs = append(evs, traceEvent{
				Name: "process_name", Ph: "M", PID: lanePID(ls.Kind),
				Args: map[string]any{"name": ls.Kind.String() + "s"},
			})
		}
		// …and the threads after the lanes.
		evs = append(evs, traceEvent{
			Name: "thread_name", Ph: "M", PID: lanePID(ls.Kind), TID: ls.ID,
			Args: map[string]any{"name": ls.Name()},
		})
	}

	for _, ls := range lanes {
		evs = append(evs, laneEvents(ls)...)
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// laneEvents converts one lane's snapshot, pairing Begin/End per op so
// only balanced spans are emitted.
func laneEvents(ls LaneSnapshot) []traceEvent {
	type openSpan struct {
		idx int // index into out of the "B" event
	}
	var out []traceEvent
	open := map[Op][]openSpan{} // per-op stack of emitted B events
	for _, ev := range ls.Events {
		names := opNames[opInvalid]
		if ev.Op > opInvalid && ev.Op < numOps {
			names = opNames[ev.Op]
		}
		ts := float64(ev.TS) / 1e3
		switch ev.Kind {
		case KindBegin:
			te := traceEvent{
				Name: ev.Op.Name(), Ph: "B",
				PID: lanePID(ls.Kind), TID: ls.ID, TS: ts,
				Args: spanArgs(names.a, ev.A, names.b, ev.B),
			}
			out = append(out, te)
			open[ev.Op] = append(open[ev.Op], openSpan{idx: len(out) - 1})
		case KindEnd:
			st := open[ev.Op]
			if len(st) == 0 {
				continue // End without Begin (wrapped ring): drop
			}
			open[ev.Op] = st[:len(st)-1]
			out = append(out, traceEvent{
				Name: ev.Op.Name(), Ph: "E",
				PID: lanePID(ls.Kind), TID: ls.ID, TS: ts,
				Args: spanArgs(names.a, ev.A, names.b, ev.B),
			})
		case KindInstant:
			out = append(out, traceEvent{
				Name: ev.Op.Name(), Ph: "i", S: "t",
				PID: lanePID(ls.Kind), TID: ls.ID, TS: ts,
				Args: spanArgs(names.a, ev.A, names.b, ev.B),
			})
		}
	}
	// Remove unmatched Begin events (in reverse index order so the
	// earlier indexes stay valid).
	var orphans []int
	for _, st := range open {
		for _, sp := range st {
			orphans = append(orphans, sp.idx)
		}
	}
	if len(orphans) > 0 {
		sort.Sort(sort.Reverse(sort.IntSlice(orphans)))
		for _, i := range orphans {
			out = append(out[:i], out[i+1:]...)
		}
	}
	return out
}

func spanArgs(aName string, a int64, bName string, b int64) map[string]any {
	var m map[string]any
	if aName != "" {
		m = map[string]any{aName: a}
	}
	if bName != "" {
		if m == nil {
			m = map[string]any{}
		}
		m[bName] = b
	}
	return m
}

// ValidateTrace checks an exported Chrome trace: it must parse, every
// lane's timestamps must be non-decreasing, and every lane's B/E span
// events must balance (matched names, LIFO order, nothing left open).
// It is strict on purpose — an unbalanced span is an instrumentation
// bug, not a rendering nuisance.
func ValidateTrace(data []byte) error {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace does not parse: %w", err)
	}
	type lane struct{ pid, tid int }
	lastTS := map[lane]float64{}
	stacks := map[lane][]string{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		ln := lane{ev.PID, ev.TID}
		if prev, ok := lastTS[ln]; ok && ev.TS < prev {
			return fmt.Errorf("event %d (%s) on pid=%d tid=%d: ts %.3f < previous %.3f",
				i, ev.Name, ev.PID, ev.TID, ev.TS, prev)
		}
		lastTS[ln] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ln] = append(stacks[ln], ev.Name)
		case "E":
			st := stacks[ln]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q on pid=%d tid=%d with no open span",
					i, ev.Name, ev.PID, ev.TID)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return fmt.Errorf("event %d: E %q on pid=%d tid=%d closes open span %q",
					i, ev.Name, ev.PID, ev.TID, top)
			}
			stacks[ln] = st[:len(st)-1]
		case "i":
			// fine
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
	}
	for ln, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("pid=%d tid=%d: %d span(s) left open, innermost %q",
				ln.pid, ln.tid, len(st), st[len(st)-1])
		}
	}
	return nil
}

// CheckBalanced verifies that every lane of a snapshot has balanced
// Begin/End events (matched ops, LIFO, none left open). Error-path
// tests use it to prove instrumentation closes its spans even when the
// instrumented operation fails.
func CheckBalanced(lanes []LaneSnapshot) error {
	for _, ls := range lanes {
		var stack []Op
		for i, ev := range ls.Events {
			switch ev.Kind {
			case KindBegin:
				stack = append(stack, ev.Op)
			case KindEnd:
				if len(stack) == 0 {
					return fmt.Errorf("lane %s event %d: End %s with no open span",
						ls.Name(), i, ev.Op.Name())
				}
				if top := stack[len(stack)-1]; top != ev.Op {
					return fmt.Errorf("lane %s event %d: End %s closes open %s",
						ls.Name(), i, ev.Op.Name(), top.Name())
				}
				stack = stack[:len(stack)-1]
			}
		}
		if len(stack) > 0 {
			return fmt.Errorf("lane %s: %d span(s) left open, innermost %s",
				ls.Name(), len(stack), stack[len(stack)-1].Name())
		}
	}
	return nil
}
