package shuffle

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/errfs"
)

// ingestTasks builds deterministic per-task pair slices: task t emits
// seq pairs (key = (t*7+i) % keys, value = t*1e6 + i) in order, so a
// value encodes exactly which (task, seq) produced it and the global
// expected value order of a key is reconstructible.
func ingestTasks(nTasks, perTask, keys int) [][]Pair[int, int] {
	tasks := make([][]Pair[int, int], nTasks)
	for t := range tasks {
		ps := make([]Pair[int, int], perTask)
		for i := range ps {
			ps[i] = Pair[int, int]{Key: (t*7 + i) % keys, Value: t*1_000_000 + i}
		}
		tasks[t] = ps
	}
	return tasks
}

// ingestTasksErr drives the tasks through an Ingester with the given
// number of concurrent workers, committing each task on completion, and
// returns the round's first error. One worker runs the tasks strictly
// one after the other, so with CompactionConcurrency: -1 the round's
// filesystem calls happen in one deterministic order — what the
// fault-injection marches count ordinals over.
func ingestTasksErr[K comparable, V any](s *Shuffle[K, V], tasks [][]Pair[K, V], workers int) error {
	ing := s.NewIngester()
	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range taskCh {
				tw := ing.Task(ti, 0)
				for _, p := range tasks[ti] {
					tw.Emit(p.Key, p.Value)
				}
				_ = tw.Commit() // the round's first error is sticky: Finish returns it
			}
		}()
	}
	for ti := range tasks {
		taskCh <- ti
	}
	close(taskCh)
	wg.Wait()
	return ing.Finish()
}

// streamTasks is ingestTasksErr for rounds that must succeed. A round
// that spilled must have left the spill directory holding nothing per
// seal (checkSpillFiles).
func streamTasks[K comparable, V any](t testing.TB, s *Shuffle[K, V], tasks [][]Pair[K, V], workers int) {
	t.Helper()
	if err := ingestTasksErr(s, tasks, workers); err != nil {
		t.Fatal(err)
	}
	checkSpillFiles(t, s)
}

// checkSpillFiles requires a finished round's spill directory to hold
// exactly the files its partitions' disk runs live in: per partition at
// most one seal spool plus compaction outputs — no file per seal, no
// leftover swap stash.
func checkSpillFiles[K comparable, V any](t testing.TB, s *Shuffle[K, V]) {
	t.Helper()
	if s.opts.SpillDir == "" {
		return
	}
	want := make(map[string]bool)
	for p := range s.parts {
		spools := 0
		for _, dr := range s.parts[p].disk {
			name := filepath.Base(dr.file.path)
			if !want[name] && strings.HasPrefix(name, "mr-spool-") {
				spools++
			}
			want[name] = true
		}
		if spools > 1 {
			t.Errorf("partition %d's runs live in %d seal spools, want at most 1", p, spools)
		}
	}
	entries, err := os.ReadDir(s.opts.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("spill dir holds %s, which no disk run references", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("disk run file %s is missing from the spill dir", name)
	}
}

// collectGroups streams every partition's groups into one map.
func collectGroups[K comparable, V any](t testing.TB, s *Shuffle[K, V]) map[K][]V {
	t.Helper()
	got := make(map[K][]V)
	for p := 0; p < s.NumPartitions(); p++ {
		for k, vs := range partitionGroups(t, s.Partition(p)) {
			if _, dup := got[k]; dup {
				t.Fatalf("key %v appears in more than one partition", k)
			}
			got[k] = vs
		}
	}
	return got
}

// TestStreamingMatchesNaiveReference pins the value-order contract: fed
// by concurrent streaming writers, every key's concatenated values must
// be exactly the naive reference's — (task order, emission order) —
// across spill on/off and combiner on/off.
func TestStreamingMatchesNaiveReference(t *testing.T) {
	const nTasks, perTask, keys = 24, 50, 17
	tasks := ingestTasks(nTasks, perTask, keys)
	want := make(map[int][]int)
	for _, ps := range tasks {
		for _, p := range ps {
			want[p.Key] = append(want[p.Key], p.Value)
		}
	}
	for _, tc := range []struct {
		name    string
		spill   bool
		combine bool
	}{
		{"in-memory", false, false},
		{"spill", true, false},
		{"spill-combiner", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Partitions: 4, MaxBufferedPairs: 32, BlockPairs: 16}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			streamed := New[int, int](opts)
			if tc.combine {
				streamed.SetCombiner(sumCombiner)
			}
			streamTasks(t, streamed, tasks, 4)
			defer streamed.Close()

			got := collectGroups(t, streamed)
			if tc.combine {
				// Where the combiner was applied depends on the seal points,
				// so only the per-key sums are comparable.
				for k, vs := range want {
					if ws, gs := sumCombiner(k, vs)[0], sumCombiner(k, got[k])[0]; ws != gs {
						t.Fatalf("key %d: streamed sum %d, reference sum %d", k, gs, ws)
					}
				}
				return
			}
			if !reflect.DeepEqual(got, want) {
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("key %d values diverge\nstreamed  %v\nreference %v", k, got[k], want[k])
					}
				}
				t.Fatalf("group sets diverge: %d streamed keys, %d in the reference", len(got), len(want))
			}
		})
	}
}

// TestStreamingAbortFencesFlushedPairs emits a full task through the
// ingester, aborts it, retries under a new attempt, and requires that
// none of the aborted attempt's pairs — staged blocks and fenced spill
// runs alike — are visible, while the retry's pairs all are, and that
// no spill file outlives Close.
func TestStreamingAbortFencesFlushedPairs(t *testing.T) {
	const budget, blockPairs = 8, 16
	fs := errfs.New(nil)
	spillDir := t.TempDir()
	s := New[int, int](Options{
		Partitions: 1, MaxBufferedPairs: budget, BlockPairs: blockPairs,
		SpillDir: spillDir, FS: fs,
	})
	defer s.Close()
	ing := s.NewIngester()

	// Task 1 commits first but stays above the watermark (task 0 is
	// unfinished), so its blocks stage and, with the budget this small,
	// fence to disk — uncommitted-spill machinery in action.
	tw1 := ing.Task(1, 0)
	for i := 0; i < 64; i++ {
		tw1.Emit(i%5, 1000+i)
	}
	if err := tw1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Task 0 attempt 0: emits everything (flushing along the way, which
	// fences under this tiny budget), then fails. Its flushed pairs
	// must be fenced off.
	tw0 := ing.Task(0, 0)
	for i := 0; i < 64; i++ {
		tw0.Emit(i%5, -1) // poison values: must never appear
	}
	if fs.Calls(errfs.OpCreate) == 0 {
		t.Fatal("attempt never spilled; the fencing path is not exercised")
	}
	tw0.Abort()

	// Retry commits clean data; the watermark then passes both tasks.
	tw0r := ing.Task(0, 1)
	for i := 0; i < 64; i++ {
		tw0r.Emit(i%5, i)
	}
	if err := tw0r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 128 {
		t.Fatalf("Pairs = %d, want 128 (64 from each committed task)", st.Pairs)
	}
	got := collectGroups(t, s)
	total := 0
	for k, vs := range got {
		// Task order: task 0's retry values (i) precede task 1's (1000+i).
		for i, v := range vs {
			if v < 0 {
				t.Fatalf("key %d: aborted attempt's value %d leaked", k, v)
			}
			if i > 0 && vs[i-1] >= 1000 && v < 1000 {
				t.Fatalf("key %d: task order violated: %v", k, vs)
			}
		}
		_ = k
		total += len(vs)
	}
	if total != 128 {
		t.Fatalf("streamed %d pairs, want 128", total)
	}

	// Every spill file — including spools holding aborted sections —
	// is gone after Close.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill dir not empty after Close: %d files remain", len(entries))
	}
}

// TestStreamingPeakResidentBound is the whole-round memory assertion:
// a dataset many times the total budget, streamed by concurrent
// workers, must keep peak resident pairs within
// P*MemoryBudget + workers*BlockPairs.
func TestStreamingPeakResidentBound(t *testing.T) {
	const (
		parts      = 4
		budget     = 256
		blockPairs = 64
		workers    = 4
		nTasks     = 32
		perTask    = 1024 // 32k pairs ~ 32x the total budget
	)
	tasks := ingestTasks(nTasks, perTask, 301)
	s := New[int, int](Options{
		Partitions: parts, MaxBufferedPairs: budget,
		BlockPairs: blockPairs, SpillDir: t.TempDir(),
	})
	defer s.Close()
	streamTasks(t, s, tasks, workers)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != nTasks*perTask {
		t.Fatalf("Pairs = %d, want %d", st.Pairs, nTasks*perTask)
	}
	if st.MaxLivePairs > budget {
		t.Errorf("MaxLivePairs = %d exceeds budget %d", st.MaxLivePairs, budget)
	}
	bound := int64(parts*budget + workers*blockPairs)
	if st.PeakResidentPairs > bound {
		t.Errorf("PeakResidentPairs = %d exceeds bound %d (= %d*%d + %d*%d)",
			st.PeakResidentPairs, bound, parts, budget, workers, blockPairs)
	}
	if st.PeakResidentPairs <= 0 {
		t.Error("PeakResidentPairs = 0: metric never measured anything")
	}
	// Everything still streams back complete and in order.
	got := collectGroups(t, s)
	total := 0
	for _, vs := range got {
		total += len(vs)
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				t.Fatalf("value order violated: %d before %d", vs[i-1], vs[i])
			}
		}
	}
	if total != nTasks*perTask {
		t.Fatalf("streamed %d pairs, want %d", total, nTasks*perTask)
	}
}

// TestSwapReadBackStaysUnderBound is TestStreamingPeakResidentBound's
// failure made deterministic — one goroutine, one partition. Task 0
// outgrows the budget several times over before it commits, so most of
// it is swapped out while its last flushes (sized here to just miss the
// next relief) stay in memory. When it commits, reading the swapped
// sections back raises the live run to the full budget; the blocks
// staged beside it must be shed first, or the partition holds a live
// run plus most of a budget of staged pairs.
func TestSwapReadBackStaysUnderBound(t *testing.T) {
	const budget, blockPairs = 256, 64
	s := New[int, int](Options{
		Partitions: 1, MaxBufferedPairs: budget, BlockPairs: blockPairs, SpillDir: t.TempDir(),
	})
	defer s.Close()
	ing := s.NewIngester()
	older, newer := ing.Task(0, 0), ing.Task(1, 0)
	want := make(map[int][]int)
	emit := func(tw *TaskWriter[int, int], n, base int) {
		for i := 0; i < n; i++ {
			tw.Emit(i%37, base+i)
		}
	}
	// Task 1's one flushed block shifts the relief points: task 0's
	// flushes 3, 7, 11 and 15 each swap everything staged, and 16-18
	// plus the commit's remainder stay in memory.
	const olderPairs = 18*blockPairs + 40
	emit(newer, 100, 10000)
	emit(older, olderPairs, 0)
	for i := 0; i < olderPairs; i++ {
		want[i%37] = append(want[i%37], i)
	}
	for i := 0; i < 100; i++ {
		want[i%37] = append(want[i%37], 10000+i)
	}
	if s.swapBytes.Load() == 0 {
		t.Fatal("nothing was swapped; the test exercises nothing")
	}
	for _, tw := range []*TaskWriter[int, int]{older, newer} {
		if err := tw.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
	if peak, bound := s.PeakResidentPairs(), int64(budget+blockPairs); peak > bound {
		t.Errorf("PeakResidentPairs = %d exceeds bound %d (= 1*%d + 1*%d)", peak, bound, budget, blockPairs)
	}
	if got := collectGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Error("grouped values diverge from the emitted stream after swap read-back")
	}
}

// TestStreamingStress is the -race workout: many workers flushing
// concurrently into few partitions with a tiny budget (constant
// fencing and compaction), injected aborts with retries, and a final
// exact comparison of every key's value sequence against the
// single-threaded expectation.
func TestStreamingStress(t *testing.T) {
	const (
		nTasks, perTask, keys = 60, 40, 11
		workers               = 8
	)
	tasks := ingestTasks(nTasks, perTask, keys)
	s := New[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 16, BlockPairs: 16,
		SpillDir: t.TempDir(),
	})
	defer s.Close()

	ing := s.NewIngester()
	rng := rand.New(rand.NewSource(42))
	abortFirst := make([]bool, nTasks) // decided up front; workers read only
	for i := range abortFirst {
		abortFirst[i] = rng.Intn(3) == 0
	}
	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range taskCh {
				attempt := 0
				if abortFirst[ti] {
					tw := ing.Task(ti, attempt)
					// Emit a prefix (flushing some blocks), then abort.
					for _, p := range tasks[ti][:perTask/2] {
						tw.Emit(p.Key, -p.Value-1) // poison
					}
					tw.Abort()
					attempt++
				}
				tw := ing.Task(ti, attempt)
				for _, p := range tasks[ti] {
					tw.Emit(p.Key, p.Value)
				}
				if err := tw.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for ti := range tasks {
		taskCh <- ti
	}
	close(taskCh)
	wg.Wait()
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}

	want := make(map[int][]int)
	for _, ps := range tasks {
		for _, p := range ps {
			want[p.Key] = append(want[p.Key], p.Value)
		}
	}
	got := collectGroups(t, s)
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("key %d diverges\ngot  %v\nwant %v", k, got[k], want[k])
			}
		}
		t.Fatal("group sets diverge")
	}
}

// TestStreamingFaultInjection marches errfs failures through the
// streaming path's disk surface — fence-spill creates and writes, seal
// writes, closes — and requires the injected cause to surface wrapped
// from Commit or Finish, with Close still cleaning up.
func TestStreamingFaultInjection(t *testing.T) {
	workload := func(fs *errfs.FS) error {
		s := New[int, int](Options{
			Partitions: 1, MaxBufferedPairs: 4, BlockPairs: 16,
			SpillDir: t.TempDir(), FS: fs,
		})
		defer s.Close()
		ing := s.NewIngester()
		var firstErr error
		for ti := 0; ti < 6; ti++ {
			tw := ing.Task(ti, 0)
			for i := 0; i < 32; i++ {
				tw.Emit(i%5, ti*100+i)
			}
			if err := tw.Commit(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := ing.Finish(); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}

	// Probe: count a clean run's operations. (Creates are few by
	// design: the partition's pressure spool batches every fence and
	// early seal into one file.)
	probe := errfs.New(nil)
	if err := workload(probe); err != nil {
		t.Fatalf("clean streaming run failed: %v", err)
	}
	creates, writes, closes := probe.Calls(errfs.OpCreate), probe.Calls(errfs.OpWrite), probe.Calls(errfs.OpClose)
	if creates < 1 || writes < 3 || closes < 1 {
		t.Fatalf("clean run did %d creates / %d writes / %d closes; spill path never engaged",
			creates, writes, closes)
	}

	cases := []struct {
		name string
		op   errfs.Op
		nth  int
	}{
		{"create-first", errfs.OpCreate, 1},
		{"create-last", errfs.OpCreate, creates},
		{"write-first", errfs.OpWrite, 1},
		{"write-mid", errfs.OpWrite, writes / 2},
		{"write-last", errfs.OpWrite, writes},
		{"close-first", errfs.OpClose, 1},
		{"close-last", errfs.OpClose, closes},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		key := string(tc.op) + ":" + strconv.Itoa(tc.nth)
		if tc.nth < 1 || seen[key] {
			continue // ordinals collapse when the probe found few calls
		}
		seen[key] = true
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New(nil)
			fs.FailAt(tc.op, tc.nth, nil)
			err := workload(fs)
			if err == nil {
				t.Fatal("streaming ingestion succeeded despite injected failure")
			}
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if !strings.Contains(err.Error(), "spill") && !strings.Contains(err.Error(), "spool") &&
				!strings.Contains(err.Error(), "compact") {
				t.Fatalf("err = %v, want a spill/spool/compaction context", err)
			}
		})
	}
}

// TestSpoolRotationFaultTolerance marches an injected create failure
// over every file-create a rotating streaming round performs. Spool
// rotation creates the replacement file before retiring the old one,
// and a failed rotation create is opportunistic — the round keeps the
// old spool and carries on. So each ordinal must end one of two ways:
// the round fails with the injected cause wrapped (a mandatory create
// — first spool, swap stash, compaction output), or it succeeds with
// byte-identical output (a rotation create). At least one ordinal must
// take the survivable path, proving rotation actually engaged.
func TestSpoolRotationFaultTolerance(t *testing.T) {
	const nTasks, perTask, keys = 12, 48, 7
	tasks := ingestTasks(nTasks, perTask, keys)
	want := make(map[int][]int)
	for _, ps := range tasks {
		for _, p := range ps {
			want[p.Key] = append(want[p.Key], p.Value)
		}
	}

	run := func(fs *errfs.FS, rotate int64) (map[int][]int, Stats, error) {
		s := New[int, int](Options{
			Partitions: 1, MaxBufferedPairs: 8, BlockPairs: 8,
			SpillDir: t.TempDir(), FS: fs,
			SpoolRotateBytes: rotate,
			// Inline compaction keeps the round single-threaded, so the
			// create ordinals are deterministic and the march is exact.
			CompactionConcurrency: -1,
		})
		defer s.Close()
		ing := s.NewIngester()
		var firstErr error
		for ti := range tasks {
			tw := ing.Task(ti, 0)
			for _, p := range tasks[ti] {
				tw.Emit(p.Key, p.Value)
			}
			if err := tw.Commit(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := ing.Finish(); err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			return nil, Stats{}, firstErr
		}
		st, err := s.Stats()
		if err != nil {
			return nil, Stats{}, err
		}
		return collectGroups(t, s), st, nil
	}

	// Probe: rotation (threshold 1: any dead byte rotates) must create
	// more files than the non-rotating round, and reclaim disk while the
	// round still runs.
	plain := errfs.New(nil)
	if _, _, err := run(plain, -1); err != nil {
		t.Fatalf("non-rotating round failed: %v", err)
	}
	probe := errfs.New(nil)
	got, st, err := run(probe, 1)
	if err != nil {
		t.Fatalf("rotating round failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rotating round output diverges")
	}
	creates := probe.Calls(errfs.OpCreate)
	if creates <= plain.Calls(errfs.OpCreate) {
		t.Fatalf("rotation never created a replacement spool: %d creates with rotation, %d without",
			creates, plain.Calls(errfs.OpCreate))
	}
	if st.BytesReclaimed == 0 {
		t.Fatal("rotating round reclaimed nothing mid-round")
	}

	survived := 0
	for nth := 1; nth <= creates; nth++ {
		fs := errfs.New(nil)
		fs.FailAt(errfs.OpCreate, nth, nil)
		got, _, err := run(fs, 1)
		if err != nil {
			if !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("create#%d: injected cause lost from the chain: %v", nth, err)
			}
			continue
		}
		survived++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("create#%d: round survived the fault but its output diverges", nth)
		}
	}
	if survived == 0 {
		t.Fatal("every create ordinal was fatal: the opportunistic rotation create never engaged")
	}
}

// TestStreamingStatsInvalidation pins the memoized-Stats contract
// under streaming ingestion: a Stats call mid-round memoizes the
// profile, and every later mutation — absorbed blocks, seals,
// background compactions, swap-section adds and releases — must
// invalidate that memo so the post-Finish Stats reflects the whole
// round. (Same regression shape as the SetCombiner staleness fix: a
// mutation path that forgets to invalidate serves the stale profile.)
func TestStreamingStatsInvalidation(t *testing.T) {
	const perTask = 64
	s := New[int, int](Options{
		Partitions: 2, MaxBufferedPairs: 8, BlockPairs: 4,
		SpillDir: t.TempDir(),
	})
	defer s.Close()
	ing := s.NewIngester()

	tw := ing.Task(0, 0)
	for i := 0; i < perTask; i++ {
		tw.Emit(i%5, i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}

	// Memoize mid-round, twice: the second call must hit the memo path,
	// so whatever the third call sees went through invalidation.
	st1, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}

	tw = ing.Task(1, 0)
	for i := 0; i < perTask; i++ {
		tw.Emit(i%5, 1000+i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}

	st2, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pairs != 2*perTask {
		t.Fatalf("stale Stats memo: post-Finish Pairs = %d, want %d (mid-round memo saw %d)",
			st2.Pairs, 2*perTask, st1.Pairs)
	}
	// The whole round is 8x the total budget, so the second half must
	// have added spill volume on top of whatever the memo captured.
	if st2.BytesSpilled <= st1.BytesSpilled {
		t.Fatalf("stale Stats memo: BytesSpilled %d not above mid-round %d",
			st2.BytesSpilled, st1.BytesSpilled)
	}
	got := collectGroups(t, s)
	total := 0
	for _, vs := range got {
		total += len(vs)
	}
	if total != 2*perTask {
		t.Fatalf("streamed %d pairs, want %d", total, 2*perTask)
	}
}

// TestStreamingEmptyAndSingleTask covers the degenerate shapes: no
// tasks at all, and one task owning every pair (the watermark cannot
// advance until the very end, so everything stages and fences).
func TestStreamingEmptyAndSingleTask(t *testing.T) {
	s := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 8, SpillDir: t.TempDir()})
	defer s.Close()
	ing := s.NewIngester()
	if err := ing.Finish(); err != nil {
		t.Fatalf("empty ingestion: %v", err)
	}

	s2 := New[int, int](Options{Partitions: 2, MaxBufferedPairs: 8, BlockPairs: 16, SpillDir: t.TempDir()})
	defer s2.Close()
	ing2 := s2.NewIngester()
	tw := ing2.Task(0, 0)
	const n = 512
	for i := 0; i < n; i++ {
		tw.Emit(i%7, i)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != n {
		t.Fatalf("Pairs = %d, want %d", st.Pairs, n)
	}
	// One giant task: the bound still holds because staged data fences
	// to disk under pressure instead of accumulating in memory.
	bound := int64(2*8 + 1*16)
	if st.PeakResidentPairs > bound {
		t.Errorf("single-task PeakResidentPairs = %d exceeds bound %d", st.PeakResidentPairs, bound)
	}
	got := collectGroups(t, s2)
	total := 0
	for _, vs := range got {
		total += len(vs)
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				t.Fatalf("value order violated: %v", vs)
			}
		}
	}
	if total != n {
		t.Fatalf("streamed %d pairs, want %d", total, n)
	}
}
