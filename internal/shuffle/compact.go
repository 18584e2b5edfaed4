// Asynchronous disk-run compaction.
//
// A streaming seal that pushes a partition over the run-count bound
// does not rewrite the partition's disk runs itself — that would stall
// the partition's ingestion (and, through the global pressure backstop,
// often the whole round) for the length of a multi-run merge. The seal
// only marks the partition and hands it to a small pool of background
// workers; the merge (mergeDiskRuns, the compaction consumer of the
// package's one merge loop) then runs concurrently with ingestion, which
// is safe because sealed runs are immutable and new seals only append to
// the partition's run list — a compaction plans a window of that list,
// merges it without the lock, and splices the result back in under the
// lock. (With Options.CompactionConcurrency negative the seal compacts
// inline instead, and nothing here runs.)
//
// Queue discipline: at most one queue entry per partition exists at
// any time (partitionState.compacting), so a channel with one slot per
// partition can never block a sender — enqueueing from under the
// partition lock is safe. A worker that finishes a partition and finds
// it has outgrown the bound again (seals landed during the merge)
// re-enqueues it directly, keeping the one-entry invariant.
package shuffle

import "repro/internal/obs"

// defaultCompactionConcurrency is the worker-pool size when
// Options.CompactionConcurrency is zero: compaction is I/O-heavy and
// already bounded by diskSem, so a couple of workers keep run counts
// down without competing with the ingestion goroutines for CPU.
const defaultCompactionConcurrency = 2

// compactionWorkers resolves Options.CompactionConcurrency (zero means
// the default; negative means inline, handled by the caller).
func (s *Shuffle[K, V]) compactionWorkers() int {
	if n := s.opts.CompactionConcurrency; n > 0 {
		return n
	}
	return defaultCompactionConcurrency
}

// maybeCompact enqueues st for asynchronous compaction when its disk
// runs outgrew a bound and it is not already queued. Caller holds
// st.mu. The WaitGroup add happens before the send, so a Finish or
// Close that starts waiting immediately after still sees the queued
// work.
func (s *Shuffle[K, V]) maybeCompact(st *partitionState[K, V]) {
	if st.compacting || !needsCompaction(st.disk) {
		return
	}
	s.compactStart.Do(s.startCompactors)
	st.compacting = true
	s.compactWG.Add(1)
	s.compactCh <- st.idx
}

// startCompactors creates the queue and the worker pool, lazily on the
// first enqueue so rounds that never outgrow the run bounds pay
// nothing.
func (s *Shuffle[K, V]) startCompactors() {
	s.compactCh = make(chan int, s.nparts)
	for i := 0; i < s.compactionWorkers(); i++ {
		// Each worker records its compaction spans on its own lane:
		// spans of different partitions interleave across workers, but
		// per-lane they are strictly nested, which CheckBalanced
		// requires.
		lane := s.opts.Recorder.Lane(obs.LaneCompactor, i)
		go s.compactor(lane)
	}
}

// compactor is one background worker: it takes partition indexes off
// the queue and compacts until the queue closes (Close). Errors are
// latched for Ingester.Finish to surface; the partition's compacting
// mark is cleared either way so a later seal can queue it again.
func (s *Shuffle[K, V]) compactor(lane *obs.Ring) {
	for p := range s.compactCh {
		st := &s.parts[p]
		s.diskSem <- struct{}{}
		st.mu.Lock()
		var err error
		if needsCompaction(st.disk) {
			err = st.compactDiskRuns(s, lane, true)
			s.invalidateStats()
		}
		switch {
		case err != nil:
			s.compactMu.Lock()
			if s.compactErr == nil {
				s.compactErr = err
			}
			s.compactMu.Unlock()
			st.compacting = false
		case needsCompaction(st.disk):
			// Seals that landed during the merge pushed the partition
			// back over a bound: go again. Keeping compacting set keeps
			// the one-entry-per-partition invariant, so this send cannot
			// block either.
			s.compactWG.Add(1)
			s.compactCh <- p
		default:
			st.compacting = false
		}
		st.mu.Unlock()
		<-s.diskSem
		s.compactWG.Done()
	}
}

// waitCompactions blocks until the compaction queue is drained and
// returns the first error any worker hit (sticky until the shuffle is
// torn down). Called by Ingester.Finish — the streaming round must not
// report success while a compaction that will be surfaced nowhere else
// is still failing — and by Close before deleting run files out from
// under the workers.
func (s *Shuffle[K, V]) waitCompactions() error {
	s.compactWG.Wait()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compactErr
}
