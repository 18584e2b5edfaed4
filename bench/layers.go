package main

import (
	"repro/internal/mr"
	"repro/internal/obs"
)

// laneIntervals are the closed spans of one op on one lane, through the
// public obs.SpanIntervals (spans of one op do not overlap on a lane).
func laneIntervals(ls obs.LaneSnapshot, op obs.Op) []obs.Interval {
	return obs.SpanIntervals([]obs.LaneSnapshot{ls}, op)
}

// opBusy sums an op's span time over all lanes, with the longest single
// span and the span count: time busy, not time covered.
func opBusy(snap []obs.LaneSnapshot, op obs.Op) (sum, longest int64, count int) {
	for _, ls := range snap {
		for _, iv := range laneIntervals(ls, op) {
			d := iv.End - iv.Start
			sum += d
			longest = max(longest, d)
			count++
		}
	}
	return sum, longest, count
}

// covered is the wall-clock an op's spans cover, lanes merged.
func covered(snap []obs.LaneSnapshot, op obs.Op) int64 {
	var total int64
	for _, iv := range obs.SpanIntervals(snap, op) {
		total += iv.End - iv.Start
	}
	return total
}

// importedOps are the recorder spans copied into the harness trace, under
// the layer that emits them.
var importedOps = []struct {
	op   obs.Op
	name string
}{
	{obs.OpMapTask, "engine.map_task"},
	{obs.OpReduceTask, "engine.reduce_task"},
	{obs.OpReduceRange, "engine.reduce_range"},
	{obs.OpSeal, "shuffle.seal"},
	{obs.OpFence, "shuffle.fence"},
	{obs.OpCompact, "shuffle.compact"},
	{obs.OpReduceMerge, "shuffle.reduce_merge"},
	{obs.OpProcMapTask, "proc.map_task"},
	{obs.OpProcReduceTask, "proc.reduce_task"},
}

// importSpans copies a traced repetition's recorder spans under the
// harness root span. The engine's phases (in process) or the worker
// processes' lives (ProcMode) become the root's children; every other
// span hangs under the phase or life that contains its start. offset is
// the tracer time at which the recorder's clock started.
func importSpans(tr *tracer, root int, snap []obs.LaneSnapshot, offset int64) {
	type parent struct {
		id         int
		lane       string
		start, end int64
	}
	var parents []parent
	for _, ph := range []struct {
		op   obs.Op
		name string
	}{
		{obs.OpPhaseMap, "engine.map_phase"},
		{obs.OpPhaseProfile, "engine.profile_phase"},
		{obs.OpPhaseReduce, "engine.reduce_phase"},
	} {
		for _, iv := range obs.SpanIntervals(snap, ph.op) {
			s, e := iv.Start+offset, iv.End+offset
			parents = append(parents, parent{tr.add(ph.name, root, "", s, e), "", s, e})
		}
	}
	for _, ls := range snap {
		for _, iv := range laneIntervals(ls, obs.OpWorkerLife) {
			s, e := iv.Start+offset, iv.End+offset
			parents = append(parents, parent{tr.add("proc.worker_life", root, ls.Name(), s, e), ls.Name(), s, e})
		}
	}
	for _, ls := range snap {
		for _, imp := range importedOps {
			for _, iv := range laneIntervals(ls, imp.op) {
				s, e := iv.Start+offset, iv.End+offset
				under := root
				for _, p := range parents {
					if s >= p.start && s < p.end && (p.lane == "" || p.lane == ls.Name()) {
						under = p.id
						break
					}
				}
				tr.add(imp.name, under, ls.Name(), s, e)
			}
		}
	}
}

// spanMetrics are the per-layer time metrics of one traced repetition,
// from its recorder snapshot.
func spanMetrics(snap []obs.LaneSnapshot) map[string]float64 {
	m := map[string]float64{
		"engine.map_phase_s":     seconds(covered(snap, obs.OpPhaseMap)),
		"engine.profile_phase_s": seconds(covered(snap, obs.OpPhaseProfile)),
		"engine.reduce_phase_s":  seconds(covered(snap, obs.OpPhaseReduce)),
	}
	sum, _, _ := opBusy(snap, obs.OpMapTask)
	m["engine.map_task_busy_s"] = seconds(sum)
	sum, longest, _ := opBusy(snap, obs.OpReduceTask)
	m["engine.reduce_task_busy_s"] = seconds(sum)
	m["engine.reduce_task_max_s"] = seconds(longest)
	sum, _, _ = opBusy(snap, obs.OpSeal)
	m["shuffle.seal_busy_s"] = seconds(sum)
	sum, _, _ = opBusy(snap, obs.OpFence)
	m["shuffle.fence_busy_s"] = seconds(sum)
	sum, _, n := opBusy(snap, obs.OpCompact)
	m["shuffle.compact_busy_s"] = seconds(sum)
	m["shuffle.compactions"] = float64(n)
	sum, _, _ = opBusy(snap, obs.OpReduceMerge)
	m["shuffle.reduce_merge_busy_s"] = seconds(sum)

	// ProcMode: one lane per worker process. A worker is spawned when its
	// life begins and useful from its first task grant; between tasks it
	// is idle.
	mapBusy, _, _ := opBusy(snap, obs.OpProcMapTask)
	redBusy, _, _ := opBusy(snap, obs.OpProcReduceTask)
	life, _, workers := opBusy(snap, obs.OpWorkerLife)
	m["proc.map_task_busy_s"] = seconds(mapBusy)
	m["proc.reduce_task_busy_s"] = seconds(redBusy)
	m["proc.spawn_s"], m["proc.idle_share"] = 0, 0
	if workers > 0 {
		var spawn int64
		for _, ls := range snap {
			lives := laneIntervals(ls, obs.OpWorkerLife)
			tasks := obs.SpanIntervals([]obs.LaneSnapshot{ls}, obs.OpProcMapTask, obs.OpProcReduceTask)
			if len(lives) > 0 && len(tasks) > 0 {
				spawn += tasks[0].Start - lives[0].Start
			}
		}
		m["proc.spawn_s"] = seconds(spawn) / float64(workers)
		m["proc.idle_share"] = 1 - float64(mapBusy+redBusy)/float64(life)
	}
	return m
}

// roundMetrics are the per-layer counts and ratios mr.Metrics carries,
// summed over a repetition's rounds; r and q are round 1's, the round the
// paper's schema describes.
func roundMetrics(rounds []mr.RoundMetrics, proc bool) map[string]float64 {
	var pairs, spilled, swapped, read, makespan, ideal, retries, procFaults int64
	var seals, runs, overlap, drain, resident int64
	var skew float64
	for _, r := range rounds {
		x := r.Metrics
		pairs += x.PairsShuffled
		spilled += x.BytesSpilled + x.IndexBytesSpilled
		swapped += x.SwapBytes
		read += x.DiskBytesRead
		makespan += x.Makespan
		ideal += x.IdealMakespan
		retries += x.TaskRetries
		procFaults += x.TaskRetries + x.LeaseExpirations + x.WorkerDeaths
		seals += x.SpillEvents
		runs += x.RunsMerged
		overlap += x.SpillOverlapNs
		drain += x.FinishDrainNs
		resident = max(resident, x.PeakResidentPairs)
		skew = max(skew, x.PartitionSkew())
	}
	perPair := func(b int64) float64 { return float64(b) / float64(pairs) }
	m := map[string]float64{
		"mr.comm_pairs": float64(pairs),
		"mr.r_observed": rounds[0].Metrics.ReplicationRate(),
		"mr.q_observed": float64(rounds[0].Metrics.MaxReducerInput),

		"engine.makespan_ratio": 0,
		"engine.task_retries":   float64(retries),

		"shuffle.seals":                    float64(seals),
		"shuffle.runs_merged":              float64(runs),
		"shuffle.spill_overlap_s":          seconds(overlap),
		"shuffle.finish_drain_s":           seconds(drain),
		"shuffle.peak_resident_pairs":      float64(resident),
		"shuffle.partition_skew":           skew,
		"shuffle.spill_bytes_per_pair":     perPair(spilled + swapped),
		"shuffle.disk_read_bytes_per_pair": perPair(read),
		"shuffle.swap_bytes_per_pair":      perPair(swapped),

		"proc.spool_bytes_per_pair":     0,
		"proc.disk_read_bytes_per_pair": 0,
		"proc.peak_resident_pairs":      0,
		"proc.retries":                  0,
	}
	if ideal > 0 {
		m["engine.makespan_ratio"] = float64(makespan) / float64(ideal)
	}
	if proc {
		// Across processes the spool files are the spill and the workers'
		// shuffles hold the resident pairs: the same counters, reported
		// under internal/proc as well.
		m["proc.spool_bytes_per_pair"] = perPair(spilled)
		m["proc.disk_read_bytes_per_pair"] = perPair(read)
		m["proc.peak_resident_pairs"] = float64(resident)
		m["proc.retries"] = float64(procFaults)
	}
	return m
}
