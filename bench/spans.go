package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one traced interval: a harness span around a call into a
// layer, or an engine span imported from the obs recorder. Start and End
// are nanoseconds since the tracer's epoch; Parent is the ID of the span
// that caused it (-1 for a root).
type span struct {
	ID       int
	Parent   int
	Name     string
	Workload string
	Lane     string // parallel lanes of one layer ("worker 1"); empty for harness spans
	Start    int64
	End      int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from the
// harness goroutine only.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a harness span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, "", t.now(), 0)
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int, lane string, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Lane: lane, Start: start, End: end})
	return id
}

// timed runs fn inside a harness span and returns the span's seconds.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return seconds(t.spans[id].dur()), err
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// unionNs is the total length covered by a set of intervals.
func unionNs(ivs []obs.Interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total, hi int64
	for i, iv := range ivs {
		if i == 0 || iv.Start > hi {
			total += iv.End - iv.Start
			hi = iv.End
		} else if iv.End > hi {
			total += iv.End - hi
			hi = iv.End
		}
	}
	return total
}

// selfTimes returns every span's self time: its duration minus the part
// of it its children cover, so self(s) + union(children of s) == dur(s)
// for every span and a workload's breakdown sums to its root span.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]obs.Interval)
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		p := spans[c.Parent]
		iv := obs.Interval{Start: max(c.Start, p.Start), End: min(c.End, p.End)}
		if iv.End > iv.Start {
			kids[c.Parent] = append(kids[c.Parent], iv)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionNs(kids[i])
	}
	return self
}

// median of a non-empty sample (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traceEvent is one Chrome trace-event "complete" span, the format
// Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as Chrome trace-event JSON. Each lane gets
// its own thread so parallel spans do not stack; id, parent, workload and
// self time travel in args.
func writeTrace(path string, spans []span) error {
	tids := map[string]int{"": 0}
	evs := make([]traceEvent, 0, len(spans))
	self := selfTimes(spans)
	for _, s := range spans {
		tid, ok := tids[s.Lane]
		if !ok {
			tid = len(tids)
			tids[s.Lane] = tid
		}
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"lane": s.Lane, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
