package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderNoops(t *testing.T) {
	var rec *Recorder
	lane := rec.Lane(LaneWorker, 0)
	if lane != nil {
		t.Fatalf("nil recorder returned non-nil lane")
	}
	// All of these must be safe no-ops.
	lane.Begin(OpMapTask, 1, 2)
	lane.End(OpMapTask, 0, 0)
	lane.Instant(OpBlockFlush, 3, 4)
	if got := rec.Dropped(); got != 0 {
		t.Fatalf("nil recorder Dropped() = %d", got)
	}
	if snap := rec.Snapshot(); snap != nil {
		t.Fatalf("nil recorder Snapshot() = %v", snap)
	}
}

func TestLaneReuse(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.Lane(LanePartition, 3)
	b := rec.Lane(LanePartition, 3)
	if a != b {
		t.Fatalf("Lane(partition,3) not stable across calls")
	}
	if c := rec.Lane(LanePartition, 4); c == a {
		t.Fatalf("distinct lane ids share a ring")
	}
}

func TestRingWrapCountsDrops(t *testing.T) {
	const cap = 8
	rec := NewRecorder(cap)
	lane := rec.Lane(LaneWorker, 0)
	for i := 0; i < cap+5; i++ {
		lane.Instant(OpBlockFlush, int64(i), 0)
	}
	if got := rec.Dropped(); got != 5 {
		t.Fatalf("recorder Dropped() = %d, want 5", got)
	}
	snap := rec.Snapshot()
	if len(snap) != 1 || len(snap[0].Events) != cap {
		t.Fatalf("snapshot kept %d events, want %d", len(snap[0].Events), cap)
	}
}

func TestConcurrentEmitRace(t *testing.T) {
	rec := NewRecorder(64) // deliberately small: force wrap under contention
	const workers = 16
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lane := rec.Lane(LaneWorker, w%4) // share lanes across goroutines
		wg.Add(1)
		go func(lane *Ring, w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lane.Begin(OpMapTask, int64(i), 0)
				lane.Instant(OpBlockFlush, int64(i), 1)
				lane.End(OpMapTask, int64(i), 0)
			}
		}(lane, w)
	}
	wg.Wait()
	total := int64(0)
	for _, ls := range rec.Snapshot() {
		total += int64(len(ls.Events)) + ls.Dropped
	}
	if want := int64(workers * perWorker * 3); total != want {
		t.Fatalf("events+drops = %d, want %d", total, want)
	}
	if rec.Dropped() == 0 {
		t.Fatalf("expected drops with 64-slot rings and %d emits per lane", workers/4*perWorker*3)
	}
}

func TestSnapshotOrdersLanes(t *testing.T) {
	rec := NewRecorder(8)
	rec.Lane(LanePartition, 1).Instant(OpBlockFlush, 0, 0)
	rec.Lane(LaneWorker, 2).Instant(OpBlockFlush, 0, 0)
	rec.Lane(LaneRound, 0).Instant(OpBlockFlush, 0, 0)
	rec.Lane(LaneWorker, 0).Instant(OpBlockFlush, 0, 0)
	snap := rec.Snapshot()
	var got []string
	for _, ls := range snap {
		got = append(got, ls.Name())
	}
	want := []string{"round", "worker 0", "worker 2", "partition 1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("lane order = %v, want %v", got, want)
	}
}

func TestWriteTraceValidates(t *testing.T) {
	rec := NewRecorder(64)
	round := rec.Lane(LaneRound, 0)
	w0 := rec.Lane(LaneWorker, 0)
	p0 := rec.Lane(LanePartition, 0)

	round.Begin(OpPhaseMap, 4, 0)
	w0.Begin(OpMapTask, 0, 1)
	p0.Instant(OpBlockFlush, 0, 256)
	p0.Begin(OpSeal, 256, 0)
	p0.End(OpSeal, 256, 0)
	w0.End(OpMapTask, 256, 0)
	round.End(OpPhaseMap, 0, 0)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"map-task"`, `"seal"`, `"block-flush"`, `"phase:map"`, `"process_name"`, `"thread_name"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestWriteTraceDropsOrphanSpans(t *testing.T) {
	rec := NewRecorder(64)
	lane := rec.Lane(LanePartition, 0)
	lane.Begin(OpSeal, 1, 0) // never closed (simulates wrap losing the End)
	lane.Begin(OpCompact, 2, 0)
	lane.End(OpCompact, 2, 0)
	lane.End(OpFence, 0, 0) // End without Begin

	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace with orphans should still validate: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), `"seal"`) {
		t.Errorf("orphan Begin leaked into trace:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `"fence"`) {
		t.Errorf("orphan End leaked into trace:\n%s", buf.String())
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":      `not json`,
		"unbalanced":   `{"traceEvents":[{"name":"seal","ph":"B","pid":3,"tid":0,"ts":1}]}`,
		"crossed":      `{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},{"name":"b","ph":"B","pid":1,"tid":0,"ts":2},{"name":"a","ph":"E","pid":1,"tid":0,"ts":3}]}`,
		"nonmonotone":  `{"traceEvents":[{"name":"x","ph":"i","s":"t","pid":1,"tid":0,"ts":5},{"name":"y","ph":"i","s":"t","pid":1,"tid":0,"ts":4}]}`,
		"strayEnd":     `{"traceEvents":[{"name":"a","ph":"E","pid":1,"tid":0,"ts":1}]}`,
		"unknownPhase": `{"traceEvents":[{"name":"a","ph":"Q","pid":1,"tid":0,"ts":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: ValidateTrace accepted invalid trace", name)
		}
	}
	// Different lanes are independent: non-monotone across lanes is fine.
	ok := `{"traceEvents":[{"name":"x","ph":"i","s":"t","pid":1,"tid":0,"ts":5},{"name":"y","ph":"i","s":"t","pid":1,"tid":1,"ts":4}]}`
	if err := ValidateTrace([]byte(ok)); err != nil {
		t.Errorf("cross-lane timestamps wrongly rejected: %v", err)
	}
}

func TestSpanIntervalsAndOverlap(t *testing.T) {
	mk := func(pairs ...int64) []Interval {
		var out []Interval
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, Interval{pairs[i], pairs[i+1]})
		}
		return out
	}
	a := mergeIntervals(mk(0, 10, 5, 12, 20, 30))
	if len(a) != 2 || a[0] != (Interval{0, 12}) || a[1] != (Interval{20, 30}) {
		t.Fatalf("mergeIntervals = %v", a)
	}

	// Through a snapshot: two lanes, overlapping map-task and seal spans.
	rec := NewRecorder(16)
	w := rec.Lane(LaneWorker, 0)
	p := rec.Lane(LanePartition, 0)
	w.Begin(OpMapTask, 0, 0)
	p.Begin(OpSeal, 0, 0)
	p.End(OpSeal, 0, 0)
	w.End(OpMapTask, 0, 0)
	snap := rec.Snapshot()
	mapIv := SpanIntervals(snap, OpMapTask)
	sealIv := SpanIntervals(snap, OpSeal, OpFence, OpCompact)
	if len(mapIv) != 1 || len(sealIv) != 1 {
		t.Fatalf("intervals: map=%v seal=%v", mapIv, sealIv)
	}
	if m, s := mapIv[0], sealIv[0]; s.Start < m.Start || s.End > m.End {
		t.Fatalf("seal span %v should nest in map span %v", s, m)
	}
}

func TestCheckBalanced(t *testing.T) {
	rec := NewRecorder(16)
	lane := rec.Lane(LanePartition, 0)
	lane.Begin(OpSeal, 0, 0)
	lane.End(OpSeal, 0, 0)
	if err := CheckBalanced(rec.Snapshot()); err != nil {
		t.Fatalf("balanced snapshot rejected: %v", err)
	}
	lane.Begin(OpCompact, 0, 0)
	if err := CheckBalanced(rec.Snapshot()); err == nil {
		t.Fatalf("open span not detected")
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mr_pairs_emitted_total", "pairs emitted by map tasks")
	c.Add(42)
	c.Add(-5) // ignored: counters only go up
	g := reg.Gauge("mr_round_replication_rate", "replication rate r of the last round")
	g.Set(1.5)
	h := reg.Histogram("mr_reducer_input_size", "pairs per reducer (q distribution)", 4)
	h.ObserveN(1, 3)   // le=1
	h.ObserveN(2, 2)   // le=2
	h.ObserveN(5, 1)   // le=8
	h.ObserveN(100, 1) // overflows into last bucket (le=8)

	if reg.Counter("mr_pairs_emitted_total", "dup") != c {
		t.Fatalf("Counter not idempotent by name")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	wants := []string{
		"# TYPE mr_pairs_emitted_total counter",
		"mr_pairs_emitted_total 42",
		"# TYPE mr_round_replication_rate gauge",
		"mr_round_replication_rate 1.5",
		"# TYPE mr_reducer_input_size histogram",
		`mr_reducer_input_size_bucket{le="1"} 3`,
		`mr_reducer_input_size_bucket{le="2"} 5`,
		`mr_reducer_input_size_bucket{le="4"} 5`,
		`mr_reducer_input_size_bucket{le="8"} 7`,
		`mr_reducer_input_size_bucket{le="+Inf"} 7`,
		"mr_reducer_input_size_sum 112",
		"mr_reducer_input_size_count 7",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestNilMetricNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	g.Set(1)
	h.ObserveN(1, 1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil metrics not zero")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mr_rounds_total", "rounds executed").Add(1)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "mr_rounds_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ unexpected body:\n%.200s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars unexpected body:\n%.200s", body)
	}
}
