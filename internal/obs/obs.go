// Package obs is the runtime's observability layer: a low-overhead
// event recorder for the round lifecycle (map tasks, block flushes,
// seals, fences, compactions, reduce merges, phase boundaries) plus two
// exporters — Chrome trace-event JSON (Perfetto-loadable timelines, one
// lane per worker and per partition) and a Prometheus text-format
// metrics registry with an optional HTTP endpoint.
//
// The recorder is built for the shuffle's hot path:
//
//   - Emitting an event is one atomic slot reservation plus one struct
//     store into a pre-allocated ring — no locks, no allocation, no
//     formatting. Event arguments are two raw int64s whose meaning is
//     fixed per Op; strings never enter the hot path.
//   - A nil *Recorder (and the nil *Ring it hands out) is a supported
//     fast path: every emit method is a nil-check and return, so an
//     uninstrumented run pays one predictable branch per call site and
//     nothing else. Instrumented code never guards call sites itself.
//   - A full ring drops new events and counts them (Dropped) instead of
//     blocking or resizing: tracing must never stall the data path it
//     observes. Size rings for the round (Config in NewRecorder) when
//     completeness matters; the drop counter says when it didn't hold.
//
// Lanes group events the way the trace renders them: one ring per map
// or reduce worker, one per shuffle partition, one for the round
// driver. Lane creation (Recorder.Lane) locks and may allocate — do it
// at setup, keep the *Ring, emit through it. Span events (Begin/End)
// on one lane must nest; the runtime's emitters hold the partition lock
// around partition-lane spans and own their worker lane outright, so
// the invariant holds by construction. Snapshots (Snapshot, WriteTrace)
// are meant for quiescent recorders — after Finish/Run returns — and
// order each lane's events by timestamp.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies what an event describes. The two int64 arguments of an
// event have a fixed, per-Op meaning, documented here and rendered with
// the matching names by the trace exporter.
type Op uint8

const (
	opInvalid Op = iota

	// OpPhaseMap spans the whole map phase (with streaming ingestion:
	// mapping plus the Finish drain). Round lane. Begin A = task count.
	OpPhaseMap
	// OpPhaseProfile spans the shuffle Stats profiling pass. Round lane.
	OpPhaseProfile
	// OpPhaseReduce spans the reduce phase including output assembly.
	// Round lane. Begin A = partition count.
	OpPhaseReduce

	// OpMapTask spans one map task attempt. Worker lane. Begin A = task,
	// B = attempt; End A = pairs emitted, B = 1 on failure else 0.
	OpMapTask
	// OpReduceTask spans one reduce partition attempt. Worker lane.
	// Begin A = partition, B = attempt; End A = keys reduced, B = 1 on
	// failure else 0.
	OpReduceTask

	// OpBlockFlush marks one streaming block staged into a partition.
	// Partition lane, instant. A = task, B = pairs in the block.
	OpBlockFlush
	// OpSeal spans closing a partition's live run (to disk or to the
	// in-memory run list). Partition lane. Begin A = live pairs; End
	// A = pairs sealed, B = 1 on failure else 0.
	OpSeal
	// OpFence spans pressure-relief fencing of staged runs to the spool.
	// Partition lane. End A = pairs fenced, B = 1 on failure else 0.
	OpFence
	// OpFenceAbort marks a task attempt's staged data being discarded.
	// Partition lane, instant. A = task, B = attempt.
	OpFenceAbort
	// OpCompact spans a disk-run compaction. Partition lane. Begin
	// A = input runs; End A = output pairs, B = 1 on failure else 0.
	OpCompact
	// OpReduceMerge spans a reduce-time k-way merge holding its run
	// files open. Partition lane. Begin A = disk runs; End B = 1 on
	// failure else 0.
	OpReduceMerge
	// OpReduceRange spans one key-range unit of a split partition's
	// reduce merge. Range lane. Begin A = partition, B = range index;
	// End A = keys reduced, B = 1 on failure else 0.
	OpReduceRange

	// OpWorkerLife spans one worker process from spawn to exit. Proc
	// lane. Begin A = pid; End A = pid, B = 1 on unexpected death else 0.
	OpWorkerLife
	// OpProcMapTask spans one multi-process map assignment, grant to
	// verdict. Proc lane. Begin A = task, B = attempt; End A = task,
	// B = 1 if the attempt was refused/failed else 0.
	OpProcMapTask
	// OpProcReduceTask spans one multi-process reduce assignment. Proc
	// lane. Begin A = partition, B = attempt; End A = partition, B = 1 on
	// refusal/failure else 0.
	OpProcReduceTask
	// OpLeaseExpire marks a task lease fenced by the TTL sweeper. Proc
	// lane, instant. A = task (negative-1-minus-partition for reduce),
	// B = attempt.
	OpLeaseExpire
	// OpWorkerDeath marks a worker process exiting while the job still
	// needed it. Proc lane, instant. A = pid, B = tasks fenced.
	OpWorkerDeath
	// OpSalvage marks a dead worker's committed map task adopted from its
	// manifest instead of re-executed. Proc lane, instant. A = task,
	// B = attempt.
	OpSalvage
	// OpStaleReport marks a report refused by attempt fencing. Proc lane,
	// instant. A = task (negative-1-minus-partition for reduce),
	// B = attempt.
	OpStaleReport
	// OpProcInputs spans the multi-process driver writing the job's
	// input image before any worker is spawned. Round lane. Begin
	// A = records, B = map tasks; End A = image bytes, B = 1 on failure
	// else 0.
	OpProcInputs
	// OpProcOutputMerge spans the multi-process driver adopting the
	// accepted reduce outputs and merging them into global key order.
	// Round lane. Begin A = partitions; End A = outputs, B = 1 on failure
	// else 0.
	OpProcOutputMerge

	numOps // count sentinel; keep last
)

// opNames maps each Op to its trace-event name and the names of its two
// arguments (begin args; ends reuse the same keys prefixed with "end_"
// contextually — the exporter labels them a and b).
var opNames = [numOps]struct{ name, a, b string }{
	OpPhaseMap:     {"phase:map", "tasks", ""},
	OpPhaseProfile: {"phase:profile", "", ""},
	OpPhaseReduce:  {"phase:reduce", "partitions", ""},
	OpMapTask:      {"map-task", "task", "attempt"},
	OpReduceTask:   {"reduce-task", "partition", "attempt"},
	OpBlockFlush:   {"block-flush", "task", "pairs"},
	OpSeal:         {"seal", "pairs", "err"},
	OpFence:        {"fence", "pairs", "err"},
	OpFenceAbort:   {"fence-abort", "task", "attempt"},
	OpCompact:      {"compact", "runs", "err"},
	OpReduceMerge:  {"reduce-merge", "runs", "err"},
	OpReduceRange:  {"reduce-range", "partition", "range"},

	OpWorkerLife:     {"worker-life", "pid", "died"},
	OpProcMapTask:    {"proc-map-task", "task", "attempt"},
	OpProcReduceTask: {"proc-reduce-task", "partition", "attempt"},
	OpLeaseExpire:    {"lease-expire", "task", "attempt"},
	OpWorkerDeath:    {"worker-death", "pid", "fenced"},
	OpSalvage:        {"salvage", "task", "attempt"},
	OpStaleReport:    {"stale-report", "task", "attempt"},

	OpProcInputs:      {"proc-inputs", "records", "tasks"},
	OpProcOutputMerge: {"proc-output-merge", "partitions", ""},
}

// ErrFlag renders an error as the 0/1 "err" argument of a span's End
// event.
func ErrFlag(err error) int64 {
	if err != nil {
		return 1
	}
	return 0
}

// Name returns the op's stable trace-event name.
func (op Op) Name() string {
	if op == opInvalid || op >= numOps {
		return fmt.Sprintf("op-%d", uint8(op))
	}
	return opNames[op].name
}

// Kind distinguishes span boundaries from point events.
type Kind uint8

const (
	KindBegin Kind = iota + 1
	KindEnd
	KindInstant
)

// Event is one recorded occurrence. TS is nanoseconds since the
// recorder was created, taken from the monotonic clock. A and B are the
// op-specific arguments.
type Event struct {
	TS   int64
	A, B int64
	Op   Op
	Kind Kind
}

// LaneKind groups lanes into trace "processes".
type LaneKind uint8

const (
	LaneRound     LaneKind = iota + 1 // the round driver
	LaneWorker                        // one map/reduce worker
	LanePartition                     // one shuffle partition
	LaneCompactor                     // one async compaction worker
	LaneProc                          // one worker *process* (multi-process mode)
	LaneRange                         // one reduce key-range unit (split partitions)
)

func (k LaneKind) String() string {
	switch k {
	case LaneRound:
		return "round"
	case LaneWorker:
		return "worker"
	case LanePartition:
		return "partition"
	case LaneCompactor:
		return "compactor"
	case LaneProc:
		return "proc-worker"
	case LaneRange:
		return "reduce-range"
	default:
		return fmt.Sprintf("lane-kind-%d", uint8(k))
	}
}

// DefaultRingCap is the per-lane event capacity when NewRecorder is
// given a non-positive one: enough for every seal, fence, compaction
// and merge of a large round, and for the block flushes of roughly
// 4M streamed pairs per partition at the default block size.
const DefaultRingCap = 4096

// Recorder hands out lanes and anchors their shared monotonic clock.
// A nil *Recorder is valid everywhere: Lane returns a nil *Ring whose
// emit methods are no-ops.
type Recorder struct {
	start   time.Time // monotonic anchor; TS = time.Since(start)
	ringCap int

	mu    sync.Mutex
	lanes []*Ring
	index map[laneKey]*Ring
}

type laneKey struct {
	kind LaneKind
	id   int
}

// NewRecorder creates a recorder whose lanes hold ringCap events each
// (<= 0 selects DefaultRingCap).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{
		start:   time.Now(),
		ringCap: ringCap,
		index:   make(map[laneKey]*Ring),
	}
}

// now is the recorder's monotonic timestamp in nanoseconds.
func (r *Recorder) now() int64 { return time.Since(r.start).Nanoseconds() }

// Lane returns the ring for (kind, id), creating it on first use. On a
// nil recorder it returns nil — the no-op ring. Lane locks; call it at
// setup time and keep the result, not per event.
func (r *Recorder) Lane(kind LaneKind, id int) *Ring {
	if r == nil {
		return nil
	}
	key := laneKey{kind, id}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.index[key]; ok {
		return g
	}
	g := &Ring{
		rec:  r,
		kind: kind,
		id:   id,
		buf:  make([]Event, r.ringCap),
	}
	r.index[key] = g
	r.lanes = append(r.lanes, g)
	return g
}

// Dropped is the total number of events discarded across all lanes
// because their ring was full. Zero means the trace is complete.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	lanes := append([]*Ring(nil), r.lanes...)
	r.mu.Unlock()
	var n int64
	for _, g := range lanes {
		n += g.dropped.Load()
	}
	return n
}

// LaneSnapshot is one lane's recorded events, ordered by timestamp.
type LaneSnapshot struct {
	Kind    LaneKind
	ID      int
	Events  []Event
	Dropped int64
}

// Name is the lane's display name ("worker 3", "partition 0", "round").
func (ls LaneSnapshot) Name() string {
	if ls.Kind == LaneRound {
		return "round"
	}
	return fmt.Sprintf("%s %d", ls.Kind, ls.ID)
}

// Snapshot copies every lane's events, each lane sorted by timestamp
// (stable, so simultaneous events keep emission order). Lanes are
// ordered (kind, id). Take snapshots of quiescent recorders — after the
// round's Run/Finish returned — not concurrently with emitters.
func (r *Recorder) Snapshot() []LaneSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lanes := append([]*Ring(nil), r.lanes...)
	r.mu.Unlock()
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].kind != lanes[j].kind {
			return lanes[i].kind < lanes[j].kind
		}
		return lanes[i].id < lanes[j].id
	})
	out := make([]LaneSnapshot, 0, len(lanes))
	for _, g := range lanes {
		n := g.next.Load()
		if n > int64(len(g.buf)) {
			n = int64(len(g.buf))
		}
		evs := append([]Event(nil), g.buf[:n]...)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		out = append(out, LaneSnapshot{
			Kind: g.kind, ID: g.id, Events: evs, Dropped: g.dropped.Load(),
		})
	}
	return out
}

// Ring is one lane's fixed-capacity event buffer. All emit methods are
// safe for concurrent use (each event reserves its own slot atomically)
// and are no-ops on a nil ring.
type Ring struct {
	rec  *Recorder
	kind LaneKind
	id   int

	next    atomic.Int64 // next free slot; beyond len(buf) counts drops
	dropped atomic.Int64
	buf     []Event
}

// emit is the hot path: one atomic add, one monotonic clock read, one
// struct store. A full ring counts the event as dropped and returns —
// it never blocks and never allocates.
func (g *Ring) emit(kind Kind, op Op, a, b int64) {
	if g == nil {
		return
	}
	i := g.next.Add(1) - 1
	if i >= int64(len(g.buf)) {
		g.dropped.Add(1)
		return
	}
	g.buf[i] = Event{TS: g.rec.now(), A: a, B: b, Op: op, Kind: kind}
}

// Begin opens a span. Spans on one lane must nest (close them in LIFO
// order); End closes the innermost open span of the op.
func (g *Ring) Begin(op Op, a, b int64) { g.emit(KindBegin, op, a, b) }

// End closes the innermost open span of op.
func (g *Ring) End(op Op, a, b int64) { g.emit(KindEnd, op, a, b) }

// Instant records a point event.
func (g *Ring) Instant(op Op, a, b int64) { g.emit(KindInstant, op, a, b) }

// Dropped is the number of events this lane discarded because its ring
// was full.
func (g *Ring) Dropped() int64 {
	if g == nil {
		return 0
	}
	return g.dropped.Load()
}

// Interval is one [Start, End) span in recorder nanoseconds.
type Interval struct{ Start, End int64 }

// SpanIntervals extracts the closed spans of the given ops from a
// snapshot, merged into a sorted, non-overlapping interval set across
// all lanes. Unclosed spans (dropped End events, rounds that died
// mid-span) are ignored.
func SpanIntervals(lanes []LaneSnapshot, ops ...Op) []Interval {
	want := make(map[Op]bool, len(ops))
	for _, op := range ops {
		want[op] = true
	}
	var raw []Interval
	for _, ls := range lanes {
		// Per-op begin stacks: spans of one op nest per lane.
		open := make(map[Op][]int64)
		for _, ev := range ls.Events {
			if !want[ev.Op] {
				continue
			}
			switch ev.Kind {
			case KindBegin:
				open[ev.Op] = append(open[ev.Op], ev.TS)
			case KindEnd:
				if st := open[ev.Op]; len(st) > 0 {
					raw = append(raw, Interval{st[len(st)-1], ev.TS})
					open[ev.Op] = st[:len(st)-1]
				}
			}
		}
	}
	return mergeIntervals(raw)
}

// mergeIntervals sorts and unions an interval set.
func mergeIntervals(in []Interval) []Interval {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// OverlapNs is the total time two merged interval sets overlap — e.g.
// map-task spans against seal/fence/compact spans, the realized
// pipelining the streaming path's SpillOverlapNs metric claims.
func OverlapNs(a, b []Interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}
