package shuffle

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runfile"
)

// benchPairs builds nTasks task outputs totalling ~total pairs over
// nKeys distinct string keys, mimicking a map phase's output.
func benchPairs(total, nTasks, nKeys int) [][]Pair[string, int] {
	perTask := total / nTasks
	tasks := make([][]Pair[string, int], nTasks)
	for t := range tasks {
		ps := make([]Pair[string, int], perTask)
		for i := range ps {
			ps[i] = Pair[string, int]{fmt.Sprintf("key-%08d", (t*perTask+i)%nKeys), i}
		}
		tasks[t] = ps
	}
	return tasks
}

// BenchmarkExternalShuffle is the acceptance benchmark for the
// disk-backed data path: a dataset 8x the total memory budget is
// streamed in by concurrent workers through an Ingester — flushing
// blocks into the exchange while mapping, so sort+encode+spill overlap
// emission — and read back range-split, the production reduce shape.
// The gates: whole-round peak resident pairs within
// P*budget + workers*blockPairs (asserted in-benchmark and exported as
// peak-resident-pairs; compare with the total pair count — residency
// tracks the budget, not the dataset), spilled-MB identical on every
// iteration, and the values/s floor scripts/benchcmp holds. The disk
// story: spilled-MB is run bytes written, swap-MB the pressure-relief
// bookkeeping, disk-read-MB bytes read back by the merge. The lanes
// place keys with the shuffle's one hasher under seed 0, so placement,
// and with it spilled-MB, is the same in every run. Whole jobs in memory, spilling and with a combiner
// are the repository benchmark's (bench/) business.
func BenchmarkExternalShuffle(b *testing.B) {
	const (
		parts  = 8
		budget = 1024
		total  = 8 * parts * budget // 8x the total budget
		nKeys  = 4096
	)

	// untracedSpilled carries the streaming lane's spilled bytes into
	// the streaming-traced lane: with swap-based relief the seal points
	// are a pure function of the committed pair stream, so attaching the
	// recorder must not move a single spilled byte. The cross-lane
	// assert pins that invariant (the old fence-valve relief was
	// timing-sensitive and the recorder's overhead shifted it).
	var untracedSpilled int64
	streamBench := func(b *testing.B, traced bool) {
		const (
			workers    = 8
			blockPairs = 256
			nStream    = 128
		)
		// Task granularity is the pipeline's scheduling knob: it sets how
		// much uncommitted in-flight output the ordering watermark keeps
		// staged.
		streamTasks := benchPairs(total, nStream, nKeys)
		b.ReportAllocs()
		var spilledMB, diskReadMB, swapMB, reclaimedMB, overlapMs, finishMs float64
		var reduceRanges, rangeSkew float64
		var peakResident int64
		var streamed, wantSpilled int64
		// One recorder for the whole run: the rings are allocated here,
		// once, so the measured rounds see the recording cost alone, not
		// the allocation churn of fresh buffers (whose GC stalls the
		// fence pressure valve reads as absorption lag). Event rings are
		// pointer-free, so the live buffers are GC-noscan. The default
		// capacity holds every event of a default benchtime run; a long
		// -benchtime wraps the rings, which only trips the drop counter.
		var rec *obs.Recorder
		if traced {
			rec = obs.NewRecorder(0)
		}
		for i := -1; i < b.N; i++ {
			if i == 0 {
				// Rounds before this one (i = -1) are untimed warmup: a
				// fresh heap's tiny GC target makes the first round's
				// collection stalls read as absorption lag, which the
				// fence pressure valve can amplify into real (measured)
				// spill I/O. The warmup gets the timed rounds to the
				// steady-state heap directly.
				b.ResetTimer()
			}
			// A small rotation threshold so long rounds exercise spool
			// rotation (dead swap/compacted sections reclaimed mid-round)
			// under the measured workload.
			s := newTuned[string, int](Options{
				Partitions: parts, MaxBufferedPairs: budget, SpillDir: b.TempDir(),
				Recorder: rec,
			}, tuning{blockPairs: blockPairs, rotateBytes: 64 << 10})
			ing := s.NewIngester()
			var wg sync.WaitGroup
			taskCh := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ti := range taskCh {
						tw := ing.Task(ti, 0)
						for _, p := range streamTasks[ti] {
							tw.Emit(p.Key, p.Value)
						}
						if err := tw.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			for ti := range streamTasks {
				taskCh <- ti
			}
			close(taskCh)
			wg.Wait()
			if err := ing.Finish(); err != nil {
				b.Fatal(err)
			}

			st, err := s.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.MaxLivePairs > budget {
				b.Fatalf("live pairs %d exceeded budget %d", st.MaxLivePairs, budget)
			}
			bound := int64(parts*budget + workers*blockPairs)
			if st.PeakResidentPairs > bound {
				b.Fatalf("peak resident pairs %d exceeded bound %d (= P*budget + workers*blockPairs)",
					st.PeakResidentPairs, bound)
			}
			if st.BytesSpilled == 0 {
				b.Fatal("streaming mode never spilled")
			}
			// Spilled bytes are deterministic: seal points depend only on
			// the committed pair stream, never on relief timing, so every
			// iteration of this workload must spill the same bytes.
			if wantSpilled == 0 {
				wantSpilled = st.BytesSpilled
			} else if st.BytesSpilled != wantSpilled {
				b.Fatalf("spilled bytes drifted between iterations: %d then %d", wantSpilled, st.BytesSpilled)
			}
			peakResident = st.PeakResidentPairs
			spilledMB = float64(st.BytesSpilled) / (1 << 20)
			swapMB = float64(st.SwapBytes) / (1 << 20)
			reclaimedMB = float64(st.BytesReclaimed) / (1 << 20)
			overlapMs = float64(ing.OverlapNs()) / 1e6
			finishMs = float64(ing.FinishNs()) / 1e6

			// Range-split parallel read-back: plan key ranges per
			// partition from the resident footer indexes and read each
			// range as an independent unit on the worker pool — the
			// production reduce shape (PlanReduceRanges + RangeReader).
			// Each unit's batch merge reuses its value arena, so this is
			// also the allocation-light decode path.
			type rbUnit struct {
				p, rng int // rng < 0: whole-partition fallback
				kr     KeyRange[string]
			}
			var units []rbUnit
			var rangeUnits int
			var maxRangePairs, sumRangePairs int64
			for p := 0; p < s.NumPartitions(); p++ {
				krs := s.Partition(p).PlanReduceRanges(int64(total/parts/4), 4)
				if krs == nil {
					units = append(units, rbUnit{p: p, rng: -1})
					continue
				}
				for r, kr := range krs {
					units = append(units, rbUnit{p: p, rng: r, kr: kr})
					if kr.Pairs > maxRangePairs {
						maxRangePairs = kr.Pairs
					}
					sumRangePairs += kr.Pairs
					rangeUnits++
				}
			}
			// One refcounted reader per split partition: the first unit
			// in opens it, the last one out closes it, so at most
			// `workers` readers hold disk-read slots at any moment.
			type partRd struct {
				mu    sync.Mutex
				rr    *RangeReader[string, int]
				users int
			}
			rds := make([]partRd, parts)
			for ui := range units {
				if units[ui].rng >= 0 {
					rds[units[ui].p].users++
				}
			}
			counts := make([]int64, len(units))
			rerrs := make([]error, len(units))
			unitCh := make(chan int, len(units))
			var rwg sync.WaitGroup
			for w := 0; w < workers; w++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for ui := range unitCh {
						u := units[ui]
						var n int64
						count := func(_ string, vs []int) error {
							n += int64(len(vs))
							return nil
						}
						var err error
						if u.rng < 0 {
							err = s.Partition(u.p).ForEachGroupBatch(count)
						} else {
							rd := &rds[u.p]
							rd.mu.Lock()
							if rd.rr == nil {
								rd.rr, err = s.Partition(u.p).OpenRangeReader()
							}
							rr := rd.rr
							rd.mu.Unlock()
							if err == nil && rr != nil {
								err = rr.ForEachGroupRange(u.kr, true, count)
							}
							rd.mu.Lock()
							rd.users--
							if rd.users == 0 && rd.rr != nil {
								if cerr := rd.rr.Close(); cerr != nil && err == nil {
									err = cerr
								}
								rd.rr = nil
							}
							rd.mu.Unlock()
						}
						counts[ui], rerrs[ui] = n, err
					}
				}()
			}
			for ui := range units {
				unitCh <- ui
			}
			close(unitCh)
			rwg.Wait()
			var got int64
			for ui := range units {
				if rerrs[ui] != nil {
					b.Fatal(rerrs[ui])
				}
				got += counts[ui]
			}
			if got != total {
				b.Fatalf("streamed %d pairs, want %d", got, total)
			}
			reduceRanges = float64(rangeUnits)
			if rangeUnits > 0 {
				rangeSkew = float64(maxRangePairs) / (float64(sumRangePairs) / float64(rangeUnits))
			}
			if i >= 0 { // warmup pairs are outside the timed window
				streamed += got
			}
			diskReadMB = float64(s.DiskBytesRead()) / (1 << 20)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if traced {
			if untracedSpilled != 0 && wantSpilled != untracedSpilled {
				b.Fatalf("recorder changed spill behavior: traced round spilled %d bytes, untraced %d",
					wantSpilled, untracedSpilled)
			}
		} else {
			untracedSpilled = wantSpilled
		}
		b.ReportMetric(float64(peakResident), "peak-resident-pairs")
		b.ReportMetric(spilledMB, "spilled-MB")
		b.ReportMetric(swapMB, "swap-MB")
		b.ReportMetric(reclaimedMB, "reclaimed-MB")
		b.ReportMetric(diskReadMB, "disk-read-MB")
		b.ReportMetric(overlapMs, "overlap-ms")
		b.ReportMetric(finishMs, "finish-drain-ms")
		b.ReportMetric(reduceRanges, "reduce-ranges")
		b.ReportMetric(rangeSkew, "range-skew")
		b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "input-pairs/s")
		if traced {
			dropped := rec.Dropped()
			b.ReportMetric(float64(dropped), "dropped-events")
			if dropped == 0 { // wrap loses Ends by design; only then skip
				if err := obs.CheckBalanced(rec.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("streaming", func(b *testing.B) { streamBench(b, false) })
	// The recorder-overhead gate: same workload with every lifecycle
	// event recorded. Compare ns/op against the plain streaming run —
	// the acceptance bound is a regression of at most 5%.
	b.Run("streaming-traced", func(b *testing.B) { streamBench(b, true) })
}

// BenchmarkReduceMergeDecode times the reduce-side read paths on a
// one-million-pair spilled workload: the section decode behind
// forEachGroup (one value-section read and one decoding walk per group
// and run) and the full batch contract (ForEachGroupBatch, which
// additionally reuses the decoded slice). Build and spill are identical
// untimed setup; only the streaming k-way merge is measured, so
// values/s compares the two directly.
//
// The set-up pins what the merge reads: placement is seeded and
// compaction inline, and the budget puts every partition (~131k pairs)
// some 170 seals deep — well past the run-count bound, well short of a
// second compaction — so each one is read as one compacted tier-1 run
// plus a few dozen fresh spool runs, in every process. (At a budget of
// 1024 the partitions sit on the bound itself: whether one reads as 127
// runs or as 1 is the hash seed's coin toss, and values/s follows it.)
// The tiny-groups lane is another shape, where the merge's per-group
// cost dominates; it reports ns/group.
func BenchmarkReduceMergeDecode(b *testing.B) {
	defer WithSeed(42)()
	const (
		parts  = 8
		budget = 768
		total  = 1 << 20 // 1M pairs
		nTasks = 16
		nKeys  = 4096
	)
	tasks := benchPairs(total, nTasks, nKeys)

	build := func(b *testing.B) *Shuffle[string, int] {
		b.Helper()
		s := newTuned[string, int](Options{
			Partitions: parts, MaxBufferedPairs: budget, SpillDir: b.TempDir(),
		}, tuning{compactors: -1})
		streamTasks(b, s, tasks, 4)
		for p := range s.parts {
			if disk := s.parts[p].disk; diskFanIn(disk) != 2 || len(disk) < 16 || len(disk) > 80 {
				b.Fatalf("partition %d reads as %d runs in %d files; the lane wants one compacted run plus a few dozen spool runs",
					p, len(disk), diskFanIn(disk))
			}
		}
		return s
	}

	for _, mode := range []string{"batch", "batch-reduce"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var streamed int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := build(b)
				b.StartTimer()
				var got int64
				count := func(_ string, vs []int) error {
					got += int64(len(vs))
					return nil
				}
				for p := 0; p < s.NumPartitions(); p++ {
					var err error
					if mode == "batch-reduce" {
						err = s.Partition(p).ForEachGroupBatch(count)
					} else {
						err = s.Partition(p).forEachGroup(count)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got != total {
					b.Fatalf("streamed %d pairs, want %d", got, total)
				}
				streamed += got
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
		})
	}

	// tiny-groups is one partition of hamming_spill: 48 seals of 2 048
	// pairs over 1 536 two-word struct keys, q = 64, so a group holds
	// under two values per run and the merge's cost is per group.
	b.Run("tiny-groups", func(b *testing.B) {
		const runs, budget, keys = 48, 2048, 1536
		stream := make([]Pair[splitKey, uint64], 0, runs*budget)
		for _, i := range rand.New(rand.NewSource(1)).Perm(runs * budget) {
			id := i % keys
			stream = append(stream, Pair[splitKey, uint64]{splitKey{id % 3, id * 7919}, uint64(i)})
		}
		s := newTuned[splitKey, uint64](Options{Partitions: 1, MaxBufferedPairs: budget, SpillDir: b.TempDir()}, tuning{compactors: -1})
		defer s.Close()
		st := &s.parts[0]
		for lo := 0; lo < len(stream); lo += 1024 {
			if err := st.absorb(s, stream[lo:lo+1024]); err != nil {
				b.Fatal(err)
			}
		}
		if n := len(st.disk) + len(st.memRuns()); n != runs {
			b.Fatalf("partition reads as %d runs, want %d", n, runs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			groups := 0
			err := s.Partition(0).ForEachGroupBatch(func(splitKey, []uint64) error {
				groups++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if groups != keys {
				b.Fatalf("merged %d groups, want %d", groups, keys)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/group")
	})
}

// BenchmarkReduceRangeSkew pits whole-partition LPT scheduling against
// index-driven range units on a skewed shuffle: ~70% of all pairs land
// in one partition, so the whole-partition plan's makespan is pinned to
// the hot partition no matter how the workers are loaded, while range
// splitting cuts the hot partition into class-aligned units any worker
// can take. Both plans are balanced with the same LPT scheduler
// (core.BalanceLoads); the bench asserts the range plan's makespan is
// strictly smaller and reports both in pairs-per-busiest-worker. The
// timed section reads every range unit through RangeReader, so values/s
// tracks the split merge's real decode cost on skewed data.
func BenchmarkReduceRangeSkew(b *testing.B) {
	// Pinned placement makes the reported makespans exact constants
	// (the probe below adapts the key population to whatever seed is
	// in force, but the resulting group sizes — and so the planned
	// loads benchcmp compares — would still drift per process).
	defer WithSeed(42)()
	const (
		parts   = 4
		workers = 4
		budget  = 1024
		total   = 1 << 15
	)
	// Probe the partition hash for a key population that pins ~70% of
	// the pairs to partition 0.
	probe := New[string, int](Options{Partitions: parts})
	var hotKeys, coldKeys []string
	for i := 0; len(hotKeys) < 64 || len(coldKeys) < 192; i++ {
		k := fmt.Sprintf("skew-%06d", i)
		if probe.PartitionOf(k) == 0 {
			if len(hotKeys) < 64 {
				hotKeys = append(hotKeys, k)
			}
		} else if len(coldKeys) < 192 {
			coldKeys = append(coldKeys, k)
		}
	}
	if err := probe.Close(); err != nil {
		b.Fatal(err)
	}
	pairs := make([]Pair[string, int], total)
	for i := range pairs {
		if i%10 < 7 {
			pairs[i] = Pair[string, int]{hotKeys[i%len(hotKeys)], i}
		} else {
			pairs[i] = Pair[string, int]{coldKeys[i%len(coldKeys)], i}
		}
	}

	b.ReportAllocs()
	var streamed int64
	var lptMakespan, rangeMakespan int64
	var rangeUnits int
	var rangeSkew float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New[string, int](Options{Partitions: parts, MaxBufferedPairs: budget, SpillDir: b.TempDir()})
		streamTasks(b, s, [][]Pair[string, int]{pairs}, 1)

		// Whole-partition plan: LPT over per-partition pair counts.
		partLoads := make([]int, parts)
		for p := 0; p < parts; p++ {
			partLoads[p] = int(s.Partition(p).Pairs())
		}
		_, lptMakespan = core.BalanceLoads(partLoads, workers)

		// Range plan: the same scheduler over index-planned range units.
		type rbUnit struct {
			p, rng int // rng < 0: whole-partition unit
			kr     KeyRange[string]
		}
		var units []rbUnit
		var unitLoads []int
		var maxRangePairs, sumRangePairs int64
		rangeUnits = 0
		for p := 0; p < parts; p++ {
			krs := s.Partition(p).PlanReduceRanges(int64(total/(workers*2)), workers)
			if krs == nil {
				units = append(units, rbUnit{p: p, rng: -1})
				unitLoads = append(unitLoads, partLoads[p])
				continue
			}
			for r, kr := range krs {
				units = append(units, rbUnit{p: p, rng: r, kr: kr})
				unitLoads = append(unitLoads, int(kr.Pairs))
				if kr.Pairs > maxRangePairs {
					maxRangePairs = kr.Pairs
				}
				sumRangePairs += kr.Pairs
				rangeUnits++
			}
		}
		_, rangeMakespan = core.BalanceLoads(unitLoads, workers)
		if rangeMakespan >= lptMakespan {
			b.Fatalf("range plan makespan %d did not beat whole-partition LPT makespan %d",
				rangeMakespan, lptMakespan)
		}
		if rangeUnits > 0 {
			rangeSkew = float64(maxRangePairs) / (float64(sumRangePairs) / float64(rangeUnits))
		}

		readers := make([]*RangeReader[string, int], parts)
		b.StartTimer()
		var got int64
		count := func(_ string, vs []int) error {
			got += int64(len(vs))
			return nil
		}
		for _, u := range units {
			var err error
			if u.rng < 0 {
				err = s.Partition(u.p).ForEachGroupBatch(count)
			} else {
				if readers[u.p] == nil {
					if readers[u.p], err = s.Partition(u.p).OpenRangeReader(); err != nil {
						b.Fatal(err)
					}
				}
				err = readers[u.p].ForEachGroupRange(u.kr, true, count)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, rr := range readers {
			if rr != nil {
				if err := rr.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if got != total {
			b.Fatalf("read %d pairs, want %d", got, total)
		}
		streamed += got
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(lptMakespan), "lpt-makespan-pairs")
	b.ReportMetric(float64(rangeMakespan), "range-makespan-pairs")
	b.ReportMetric(float64(rangeUnits), "reduce-ranges")
	b.ReportMetric(rangeSkew, "range-skew")
	b.ReportMetric(float64(streamed)/b.Elapsed().Seconds(), "values/s")
}

// BenchmarkKeyPlan times the four things the data path does with a
// key — place it (StableHasher, the shuffle's one hash), normalize it
// (runfile.Plan.Norm, for the keys that have the form), sort it
// (SortKeys at every seal), and advance a merge cursor past it (advance
// the winner of mergeCursors' tree of losers and replay its leaf) — for
// an int key, the two-word
// struct key the paper's problem families use, and a struct key with a
// string. The hash, norm and merge-advance lanes must not allocate at
// all and a sort at most once per call; scripts/benchcmp holds
// allocs/op to that.
func BenchmarkKeyPlan(b *testing.B) {
	benchKeyPlan(b, "int", func(i int) int { return i * 7919 % 100003 })
	benchKeyPlan(b, "struct2", func(i int) keyPair { return keyPair{i % 61, uint64(i*7919%100003) << 20} })
	benchKeyPlan(b, "struct-string", func(i int) keyNamed {
		return keyNamed{S: fmt.Sprintf("segment-%05d", i*7919%100003), Hot: i%2 == 0, T: float32(i % 13)}
	})
}

var keyPlanSink uint64

func benchKeyPlan[K comparable](b *testing.B, name string, key func(i int) K) {
	const n = 4096 // distinct keys, in pseudo-random order
	keys := make([]K, n)
	for i := range keys {
		keys[i] = key(i)
	}
	b.Run("hash/"+name, func(b *testing.B) {
		h := NewStableHasher[K](42)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keyPlanSink += h.Hash(keys[i%n])
		}
	})
	if plan := runfile.PlanFor[K](); plan.Normalized() {
		b.Run("norm/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w0, w1 := plan.Norm(unsafe.Pointer(&keys[i%n]))
				keyPlanSink += w0 ^ w1
			}
		})
	}
	b.Run("sort/"+name, func(b *testing.B) {
		scratch := make([]K, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, keys)
			SortKeys(scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})
	b.Run("merge-advance/"+name, func(b *testing.B) {
		// 16 index-driven cursors over disjoint slices of the sorted key
		// space; a cursor that runs out rewinds, so the heap never drains.
		const runs = 16
		sorted := append([]K(nil), keys...)
		SortKeys(sorted)
		cursors := make([]*groupCursor[K, int], runs)
		for r := range cursors {
			c := new(groupCursor[K, int])
			for i := r; i < n; i += runs {
				c.idx = append(c.idx, keyCount[K]{key: sorted[i], count: 1})
			}
			c.end = len(c.idx)
			cursors[r] = c
		}
		t := newLoserTree(cursors, orderOf[K]())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := t.nodes[0]
			if t.advance(w); t.leaves[w].done {
				cursors[w].pos = 0
				t.advance(w)
			}
			t.replay(w)
		}
	})
}

// sealEntry is the matmul round-1 value: one matrix entry.
type sealEntry struct {
	Mat      int8
	Row, Col int
	Val      float64
}

// BenchmarkSeal times one partition's absorb and seal path alone, on
// the partition-0 share (of 8) of two benchmark workloads' round-1
// streams, absorbed in 1 024-pair blocks into a shuffle that seals to
// its spool:
//   - hamming: Hamming Splitting at b = 18, c = 3 over a shuffled
//     input, struct keys, 2 048-pair seals of about 1 100 keys each;
//   - matmul: the two-phase multiply at n = 256, s = t = 16, int keys,
//     32-byte values, 16 384-pair seals.
//
// It reports ns/pair and allocs/seal (scripts/benchcmp holds the
// latter under a ceiling).
func BenchmarkSeal(b *testing.B) {
	b.Run("hamming", func(b *testing.B) {
		const bits, c, w = 18, 3, 6
		var stream []Pair[splitKey, uint64]
		h := NewStableHasher[splitKey](0)
		for _, x := range rand.New(rand.NewSource(1)).Perm(1 << bits) {
			for g := 0; g < c; g++ {
				lo := uint64(x) & (1<<(g*w) - 1)
				k := splitKey{g, int(uint64(x)>>((g+1)*w)<<(g*w) | lo)}
				if h.Hash(k)&7 == 0 {
					stream = append(stream, Pair[splitKey, uint64]{k, uint64(x)})
				}
			}
		}
		benchSeal(b, stream, 2048)
	})
	b.Run("matmul", func(b *testing.B) {
		const n, st, g = 256, 16, 16
		var stream []Pair[int, sealEntry]
		h := NewStableHasher[int](0)
		for mat := int8(0); mat < 2; mat++ {
			for i := 0; i < n*n; i++ {
				e := sealEntry{mat, i / n, i % n, float64(i)}
				for j := 0; j < g; j++ {
					cell := ((e.Row/st)*g+j)*g + e.Col/st
					if mat == 1 {
						cell = (j*g+e.Col/st)*g + e.Row/st
					}
					if h.Hash(cell)&7 == 0 {
						stream = append(stream, Pair[int, sealEntry]{cell, e})
					}
				}
			}
		}
		benchSeal(b, stream, 16384)
	})
}

func benchSeal[K comparable, V any](b *testing.B, stream []Pair[K, V], budget int) {
	var mallocs, seals uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newTuned[K, V](Options{Partitions: 1, MaxBufferedPairs: budget, SpillDir: b.TempDir()}, tuning{compactors: -1})
		st := &s.parts[0]
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for lo := 0; lo < len(stream); lo += 1024 {
			if err := st.absorb(s, stream[lo:min(lo+1024, len(stream))]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		seals += uint64(st.spillEvents)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/pair")
	b.ReportMetric(float64(mallocs)/float64(seals), "allocs/seal")
}
