// The control-plane seam between driver and workers: plain net/rpc
// (gob) over a unix socket, the package's only use of gob. Everything
// on the wire is a concrete struct — typed records, keys, values and
// outputs never cross the RPC boundary, only file coordinates do; the
// data itself crosses through run files (the input image, the spools,
// the reduce outputs).
package proc

import (
	"time"
)

// TaskKind discriminates the driver's replies to a polling worker.
type TaskKind int

const (
	// TaskWait tells the worker nothing is assignable right now; poll
	// again shortly.
	TaskWait TaskKind = iota
	// TaskMap assigns a map task over inputs [Lo, Hi).
	TaskMap
	// TaskReduce assigns one partition's reduce task over Sections.
	TaskReduce
	// TaskExit tells the worker the job is over (done or failed).
	TaskExit
)

// Section is one fenced byte range of a spool file: the map output of
// one (task, attempt) for one partition. Sections are the unit of the
// inter-process exchange — a map report commits them, the driver hands
// them to reduce tasks, and salvage validates them.
type Section struct {
	// Path is the spool file, Offset/Length the section's byte range.
	Path   string
	Offset int64
	Length int64
	// DataBytes and IndexBytes split Length into run data and footer
	// index (DataBytes+IndexBytes == Length).
	DataBytes  int64
	IndexBytes int64
	// Pairs is the section's value count (post-combine); Groups its
	// distinct keys.
	Pairs  int64
	Groups int64
	// Task and Attempt fence the section; Part is its partition. Seq
	// orders the sections one attempt wrote for one partition: under a
	// small MemoryBudget a map task spills the same partition several
	// times, and the reduce merge must replay those spills in emission
	// order to stay byte-identical with the in-process engine.
	Task    int
	Attempt int
	Part    int
	Seq     int
}

// Task is one assignment (or a Wait/Exit directive).
type Task struct {
	Kind    TaskKind
	ID      int // map task ordinal, or reduce partition
	Attempt int

	// Map fields. Records [Lo, Hi) are the value section of the task's
	// group in the input image: InputBytes bytes at InputOffset.
	// MemoryBudget is the per-partition buffered-pair bound the worker's
	// streaming shuffle must respect (0 = unbounded, one section per
	// partition).
	Lo, Hi       int
	InputOffset  int64
	InputBytes   int64
	Partitions   int
	MemoryBudget int

	// Reduce fields: the committed input sections in map-task order.
	// ReduceSplitPairs and ReduceRangeConcurrency carry the driver's
	// range-split knobs: a positive split target has the worker cut the
	// merge into class-aligned key ranges it runs concurrently.
	Sections               []Section
	MaxReducerInput        int
	ReduceSplitPairs       int
	ReduceRangeConcurrency int

	// HeartbeatEvery is how often the worker should renew its lease on
	// this task (the driver sets a fraction of the lease TTL). Zero means
	// no heartbeating.
	HeartbeatEvery time.Duration

	// Wait fields.
	PollAfter time.Duration
}

// RegisterArgs announces a worker to the driver.
type RegisterArgs struct {
	Worker string
	PID    int
}

// PollArgs asks for work.
type PollArgs struct {
	Worker string
}

// HeartbeatArgs renews the lease on a running task.
type HeartbeatArgs struct {
	Worker  string
	Kind    TaskKind // TaskMap or TaskReduce
	ID      int
	Attempt int
}

// HeartbeatReply tells the worker whether its attempt is still current.
type HeartbeatReply struct {
	// Cancel is set when the attempt has been fenced (lease expired or
	// superseded): the worker should abandon the task; any report it
	// sends will be refused.
	Cancel bool
}

// MapReport commits a finished map attempt: the sections it wrote and
// its pre-combine emission count. Err carries a failed attempt instead.
type MapReport struct {
	Worker       string
	Task         int
	Attempt      int
	PairsEmitted int64
	Sections     []Section
	// PeakResident is the attempt's high-water buffered pair count
	// inside the worker's shuffle (the memory bound being enforced).
	PeakResident int64
	Err          string
	// Fatal marks errors retrying cannot fix (an unregistered job, an
	// unencodable key type): the driver fails the job instead of
	// re-granting the task.
	Fatal bool
}

// ReduceReport commits a finished reduce attempt: the partition's
// output run file (OutPath, OutBytes long; Outputs values in groups of
// its reduced keys) plus its group profile. Err carries a failed
// attempt.
type ReduceReport struct {
	Worker    string
	Part      int
	Attempt   int
	OutPath   string
	OutBytes  int64
	Keys      int64
	Outputs   int64
	MaxGroup  int64
	BytesRead int64
	// PeakResident is the attempt's high-water resident pair count: the
	// largest single group the k-way merge held decoded at once.
	PeakResident int64
	// Ranges is how many key-range units the attempt split its merge
	// into (0 when it ran as one whole-partition merge).
	Ranges int64
	Err    string
	Fatal  bool
}

// Ack is the driver's answer to a report.
type Ack struct {
	// Accepted is false when the report was fenced (stale attempt,
	// task already done): the worker's output is discarded.
	Accepted bool
}

// Coord is the driver's RPC service. Workers call its methods; every
// method body just forwards into the Driver under its lock.
type Coord struct{ d *Driver }

// Register implements the worker hello: the RPC-level liveness signal
// (the supervisor already knows the process).
func (c *Coord) Register(args RegisterArgs, reply *Ack) error {
	reply.Accepted = true
	return nil
}

// Poll hands out the next task (or Wait/Exit).
func (c *Coord) Poll(args PollArgs, reply *Task) error {
	*reply = c.d.poll(args.Worker)
	return nil
}

// Heartbeat renews a lease.
func (c *Coord) Heartbeat(args HeartbeatArgs, reply *HeartbeatReply) error {
	reply.Cancel = !c.d.heartbeat(args)
	return nil
}

// MapDone commits (or fails) a map attempt.
func (c *Coord) MapDone(args MapReport, reply *Ack) error {
	reply.Accepted = c.d.mapDone(args)
	return nil
}

// ReduceDone commits (or fails) a reduce attempt.
func (c *Coord) ReduceDone(args ReduceReport, reply *Ack) error {
	reply.Accepted = c.d.reduceDone(args)
	return nil
}
