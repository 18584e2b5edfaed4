package engine

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/obs"
	"repro/internal/shuffle"
)

// RunMapAttempt is one attempt of a map task, the body both executors
// run: it maps the records into emit and returns the pre-combine
// emission count. With a combiner the task folds each key's values
// locally (mapCombiner) and emits the (smaller) combined output at its
// end, keys in the order the task first emitted them.
func RunMapAttempt[I any, K comparable, V, O any](r Round[I, K, V, O], records iter.Seq[[]I], emit func(K, V)) int64 {
	var count int64
	var c *mapCombiner[K, V]
	out := emit
	if r.Combine != nil {
		c = &mapCombiner[K, V]{combine: r.Combine, foldAt: foldAt, slot: map[K]int{}}
		out = c.add
	}
	counted := func(k K, v V) {
		out(k, v)
		count++
	}
	for recs := range records {
		for _, rec := range recs {
			r.Map(rec, counted)
		}
	}
	if c != nil {
		c.flush(emit)
	}
	return count
}

// foldAt is how many values a key gathers in a map task before the
// combiner folds them into a partial result.
const foldAt = 16

// mapCombiner is a map task's local combine: a slot per key, in the
// order the task first emitted the keys, that buffers the key's values
// and folds them with the combiner whenever its buffer is full and
// holds at least foldAt of them, and once more at flush. A fold that
// leaves the buffer over half full doubles it, so a combiner that
// shrinks little still runs O(1) times per value. The combiner
// contract allows it: a combiner may see any prefix of a key's values,
// and its own partial results among them. Its table is bounded by the
// task's distinct keys.
type mapCombiner[K comparable, V any] struct {
	combine CombineFunc[K, V]
	foldAt  int
	slot    map[K]int
	keys    []K
	vals    [][]V
}

func (c *mapCombiner[K, V]) add(k K, v V) {
	i, ok := c.slot[k]
	if !ok {
		i = len(c.keys)
		c.slot[k] = i
		c.keys = append(c.keys, k)
		c.vals = append(c.vals, nil)
	}
	vs := c.vals[i]
	if len(vs) == cap(vs) && len(vs) >= c.foldAt {
		vs = append(vs[:0], c.combine(k, vs)...)
		if len(vs) > cap(vs)/2 {
			vs = slices.Grow(vs, len(vs))
		}
	}
	c.vals[i] = append(vs, v)
}

// flush combines every key's buffered values a last time and emits the
// results, keys in first-emitted order.
func (c *mapCombiner[K, V]) flush(emit func(K, V)) {
	for i, k := range c.keys {
		for _, v := range c.combine(k, c.vals[i]) {
			emit(k, v)
		}
	}
}

// PlanReduce is the reduce side's planning step in both executors, over
// their shuffle (in a proc reduce worker, a one-partition shuffle of
// adopted sections). Under MaxReducerInput a counting merge of the
// resident indexes (Stats, span phase:profile) fails an overflowing
// round before any reducer runs, returning that profile and an error
// wrapping ErrReducerOverflow. Otherwise st is the merge-free Totals,
// into which the reduce units fold their group profiles
// (Stats.AddGroups), and ranges[p] is partition p's key ranges under
// RangeFanout, nil to reduce it whole. No run file is read and no key
// group is split.
func PlanReduce[K comparable, V any](p Plan, job string, sh *shuffle.Shuffle[K, V]) (st shuffle.Stats, ranges [][]shuffle.KeyRange[K], err error) {
	if p.MaxReducerInput > 0 {
		lane := p.Recorder.Lane(obs.LaneRound, 0)
		lane.Begin(obs.OpPhaseProfile, 0, 0)
		st, err = sh.Stats()
		lane.End(obs.OpPhaseProfile, 0, obs.ErrFlag(err))
		if err != nil {
			return st, nil, fmt.Errorf("engine: profiling shuffle of round %q: %w", job, err)
		}
		if err := p.CheckReducerInput(job, st.MaxReducerInput); err != nil {
			return st, nil, err
		}
	}
	st = sh.Totals()
	ranges = make([][]shuffle.KeyRange[K], len(st.Partitions))
	for i, part := range st.Partitions {
		if n := p.RangeFanout(part.Pairs); n > 0 {
			ranges[i] = sh.Partition(i).PlanReduceRanges(int64(p.ReduceSplitPairs), n)
		}
	}
	return st, ranges, nil
}

// RunReduceAttempt is one attempt of a reduce unit in both executors:
// it reduces the key range kr of a partition (the zero range: all of
// it) into out with the round's Reducer, streaming the groups in key
// order through the partition's RangeReader, whose merge holds one
// group's values at a time, and returns the profile of those groups.
func RunReduceAttempt[I any, K comparable, V, O any](r Round[I, K, V, O], rr *shuffle.RangeReader[K, V], kr shuffle.KeyRange[K], out *Collector[K, O]) (shuffle.GroupProfile, error) {
	var groups shuffle.GroupProfile
	reduce, batch := r.Reducer()
	emit := out.Emit
	err := rr.ForEachGroupRange(kr, batch, func(k K, vs []V) error {
		reduce(k, vs, emit)
		out.EndKey(k)
		groups.Add(len(vs))
		return nil
	})
	return groups, err
}
