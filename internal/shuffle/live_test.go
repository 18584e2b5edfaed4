package shuffle

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/runfile"
)

// FuzzLiveRun is the map side's differential target: a stream with
// heavy key repeats goes through the shuffle's task writers — under a
// budget of 1, 2, a random one, one past the stream, or none; with and
// without a combiner; in memory, with a SpillDir, or through a SealSink
// — and forEachGroup must equal a serial stable group-by, for a key
// with a normalized form and for a string key.
func FuzzLiveRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte("aabbaacc"))
	f.Add(uint8(13), uint8(7), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(38), uint8(3), bytes.Repeat([]byte{1, 2, 3, 1, 9}, 80))
	f.Fuzz(func(t *testing.T, mode, budgetSel uint8, stream []byte) {
		// A budget of 1 seals once per pair: keep long inputs fast.
		stream = stream[:min(len(stream), 2048)]
		perTask := int(mode>>3)%13 + 1
		checkLiveRun(t, mode, budgetSel, perTask, stream, func(b byte) splitKey { return splitKey{int(b % 3), int(b % 5)} })
		checkLiveRun(t, mode, budgetSel, perTask, stream, func(b byte) string { return strconv.Itoa(int(b % 11)) })
	})
}

// TestLiveRunChunks runs the differential check over one task longer
// than chunkPairs, so with no budget its writer seals its buckets in
// chunks: one task's several in-memory runs (or seal-sink sections),
// read back in seal order; with a budget above the stream, one run.
func TestLiveRunChunks(t *testing.T) {
	stream := make([]byte, 2*chunkPairs+500)
	for i := range stream {
		stream[i] = byte(i*i + i/7)
	}
	for mode := uint8(0); mode < 6; mode++ {
		for _, budgetSel := range []uint8{4, 3} { // none, one past the stream
			checkLiveRun(t, mode, budgetSel, len(stream), stream, func(b byte) splitKey { return splitKey{int(b % 7), int(b)} })
		}
	}
}

// checkLiveRun streams stream's bytes as pairs (key(b), position) in
// tasks of perTask pairs each, on two concurrent writers, through a
// two-partition shuffle. mode%3 picks memory, SpillDir or seal sink,
// mode&4 a summing combiner; budgetSel%5 the budget. A seal sink has no
// task order of its own — its sections arrive in seal order, which is
// why a proc map worker's shuffle holds one task — so the sink case runs
// the tasks one after another. Without the combiner each key's values
// must be its positions in order; with it, their sum. Totals must count
// every pair read.
func checkLiveRun[K comparable](t *testing.T, mode, budgetSel uint8, perTask int, stream []byte, key func(byte) K) {
	budget := []int{1, 2, 3 + int(budgetSel>>3), len(stream) + 1, 0}[budgetSel%5]
	combine := mode&4 != 0
	var tasks [][]Pair[K, int]
	want := make(map[K][]int)
	for i, b := range stream {
		if i%perTask == 0 {
			tasks = append(tasks, nil)
		}
		k := key(b)
		tasks[len(tasks)-1] = append(tasks[len(tasks)-1], Pair[K, int]{k, i})
		want[k] = append(want[k], i)
	}
	opts := Options{Partitions: 2, MaxBufferedPairs: budget}
	if mode%3 != 0 && budget > 0 {
		opts.SpillDir = t.TempDir()
	}
	s := New[K, int](opts)
	defer s.Close()
	if combine {
		s.SetCombiner(func(_ K, vs []int) []int {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			return []int{sum}
		})
	}
	type section struct {
		part      int
		off, size int64
	}
	var (
		mu   sync.Mutex
		secs []section
		off  int64
	)
	path := filepath.Join(t.TempDir(), "sink.run")
	if mode%3 == 2 {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s.SetSealSink(func(part int, fill func(w *runfile.Writer) error) error {
			mu.Lock()
			defer mu.Unlock()
			w := runfile.NewWriter(f)
			if err := fill(w); err != nil {
				return err
			}
			if err := w.Finish(); err != nil {
				return err
			}
			secs = append(secs, section{part, off, w.BytesWritten()})
			off += w.BytesWritten()
			return nil
		})
	}
	writers := 2
	if mode%3 == 2 {
		writers = 1
	}
	if err := ingestTasksErr(s, tasks, writers); err != nil {
		t.Fatal(err)
	}
	read := s
	if mode%3 == 2 {
		read = New[K, int](Options{Partitions: 2})
		defer read.Close()
		for _, sec := range secs {
			if err := read.AdoptRun(sec.part, path, sec.off, sec.size); err != nil {
				t.Fatal(err)
			}
		}
	}

	cmp := orderOf[K]()
	seen, pairs := 0, 0
	for p := 0; p < read.NumPartitions(); p++ {
		var prev *K
		err := read.Partition(p).forEachGroup(func(k K, vs []int) error {
			if prev != nil && cmp(*prev, k) >= 0 {
				t.Fatalf("mode %d budget %d: partition %d: key %v after %v", mode, budget, p, k, *prev)
			}
			prev = &k
			exp, ok := want[k]
			if !ok {
				t.Fatalf("mode %d budget %d: key %v was never emitted", mode, budget, k)
			}
			if combine {
				got, wsum := 0, 0
				for _, v := range vs {
					got += v
				}
				for _, v := range exp {
					wsum += v
				}
				if got != wsum {
					t.Fatalf("mode %d budget %d: key %v sums to %d, want %d", mode, budget, k, got, wsum)
				}
			} else if !reflect.DeepEqual(vs, exp) {
				t.Fatalf("mode %d budget %d: key %v has %v, want %v", mode, budget, k, vs, exp)
			}
			seen++
			pairs += len(vs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen != len(want) {
		t.Fatalf("mode %d budget %d: read %d keys, want %d", mode, budget, seen, len(want))
	}
	if !combine && pairs != len(stream) {
		t.Fatalf("mode %d budget %d: read %d pairs, want %d", mode, budget, pairs, len(stream))
	}
	if got := s.Totals().PairsShuffled; got != int64(pairs) {
		t.Fatalf("mode %d budget %d: Totals counts %d pairs, read %d", mode, budget, got, pairs)
	}
}
