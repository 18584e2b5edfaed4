package shuffle

import (
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/errfs"
	"repro/internal/runfile"
)

// paddedCell is shaped like matmul's round-1 value: an int8 tag then
// word-aligned fields, so the memory image carries seven padding bytes.
type paddedCell struct {
	Tag  int8
	I, J int
	X    float64
}

func cellOf(v int) paddedCell {
	return paddedCell{Tag: int8(v % 3), I: v, J: -v, X: float64(v) / 4}
}

// splitKey is shaped like hamming's two-field struct key.
type splitKey struct{ Segment, Bits int }

// Keys the memory image must not take: a string field, and a bool
// (not every byte is a valid bool).
type (
	namedKey struct {
		Name string
		N    int
	}
	flagKey struct {
		On bool
		N  int
	}
)

// TestSwapPaths runs a round whose every task outgrows the budget
// before it commits, over pair types of both swap paths, and requires
// the grouped values to equal the naive task-order reference. Each pair
// type must take the path its shape selects: pointer-free numeric pairs
// swap as memory images, the rest as codec-framed pairs. With rotation
// at every dead byte, the stash also rotates while sections are being
// read back, so a read-back must follow its section into the retired
// file.
func TestSwapPaths(t *testing.T) {
	for _, rotate := range []int64{0, 1} {
		name := func(s string) string {
			if rotate > 0 {
				return s + "/rotating"
			}
			return s
		}
		t.Run(name("int-int"), func(t *testing.T) {
			checkSwapPath(t, true, rotate, func(k int) int { return k }, func(v int) int { return v })
		})
		t.Run(name("int-padded-struct"), func(t *testing.T) {
			checkSwapPath(t, true, rotate, func(k int) int { return k }, cellOf)
		})
		t.Run(name("struct-key"), func(t *testing.T) {
			checkSwapPath(t, true, rotate, func(k int) splitKey { return splitKey{k % 3, k} }, func(v int) int { return v })
		})
		t.Run(name("string-key"), func(t *testing.T) {
			checkSwapPath(t, false, rotate, strconv.Itoa, func(v int) int { return v })
		})
		t.Run(name("struct-key-with-string"), func(t *testing.T) {
			checkSwapPath(t, false, rotate, func(k int) namedKey { return namedKey{"k" + strconv.Itoa(k%4), k} }, cellOf)
		})
		t.Run(name("struct-key-with-bool"), func(t *testing.T) {
			checkSwapPath(t, false, rotate, func(k int) flagKey { return flagKey{k%2 == 0, k} }, func(v int) int { return v })
		})
	}
}

func checkSwapPath[K comparable, V any](t *testing.T, image bool, rotate int64, key func(int) K, val func(int) V) {
	const nTasks, perTask, keys = 6, 300, 13
	tasks := make([][]Pair[K, V], nTasks)
	want := make(map[K][]V)
	for ti, ps := range ingestTasks(nTasks, perTask, keys) {
		for _, p := range ps {
			k, v := key(p.Key), val(p.Value)
			tasks[ti] = append(tasks[ti], Pair[K, V]{k, v})
			want[k] = append(want[k], v)
		}
	}
	s := newTuned[K, V](Options{
		Partitions: 2, MaxBufferedPairs: 64, SpillDir: t.TempDir(),
	}, tuning{blockPairs: 16, rotateBytes: rotate})
	defer s.Close()
	if got := s.swapImage > 0; got != image {
		t.Fatalf("memory-image swap = %v, want %v", got, image)
	}
	if image && s.swapImage != int(unsafe.Sizeof(Pair[K, V]{})) {
		t.Fatalf("image size %d, want sizeof(Pair) = %d", s.swapImage, unsafe.Sizeof(Pair[K, V]{}))
	}
	streamTasks(t, s, tasks, 2)
	if s.swapBytes.Load() == 0 {
		t.Fatal("nothing was swapped; the test exercises nothing")
	}
	if got := collectGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values diverge from the naive task-order reference after swap read-back")
	}
}

// TestSwapInternBounded: the string-key dedup table of the framed swap
// read-back serves the live run being refilled, so a round with far
// more distinct keys than the budget never holds more entries than the
// live run's pairs plus one read-back block.
func TestSwapInternBounded(t *testing.T) {
	const budget, block = 64, 16
	var tasks [][]Pair[string, int]
	for _, ps := range ingestTasks(6, 300, 5000) {
		var task []Pair[string, int]
		for _, p := range ps {
			task = append(task, Pair[string, int]{strconv.Itoa(p.Key), p.Value})
		}
		tasks = append(tasks, task)
	}
	s := newTuned[string, int](Options{
		Partitions: 1, MaxBufferedPairs: budget, SpillDir: t.TempDir(),
	}, tuning{blockPairs: block})
	defer s.Close()
	// Decode runs once per key the table misses, under the partition's
	// lock, just before the key is interned.
	st := &s.parts[0]
	decode, peak := s.kc.Decode, 0
	s.kc.Decode = func(b []byte) (string, error) {
		peak = max(peak, len(st.intern)+1)
		return decode(b)
	}
	streamTasks(t, s, tasks, 2)
	if s.swapBytes.Load() == 0 {
		t.Fatal("nothing was swapped; the test exercises nothing")
	}
	if peak == 0 || peak > budget+block {
		t.Fatalf("intern table peaked at %d entries, want 1..%d (budget + one block)", peak, budget+block)
	}
}

// TestSwapImageCorruption alters the stash file of a memory-image
// round between the swap and the commit that reads it back. A stash cut
// short, or a section header that no longer matches its pair count,
// fails the round with runfile.ErrCorrupt naming the stash; an injected
// read failure does too, with its cause kept in the chain. Bytes
// appended past the last section are harmless: sections are addressed
// by offset, so the round succeeds.
func TestSwapImageCorruption(t *testing.T) {
	cases := []struct {
		name   string
		wrap   func(fs runfile.FS) runfile.FS // nil: errfs alone
		alter  func(t *testing.T, path string, fs *errfs.FS)
		wantOK bool
		cause  error
	}{
		{
			// Cut inside the first section's pairs at the read-back's first
			// read: a swap write after a truncation would refill the cut
			// with a hole of zeros, which no length check can see.
			name: "truncated",
			wrap: func(fs runfile.FS) runfile.FS { return cutOnReadFS{fs, 12} },
		},
		{name: "forged-header", alter: func(t *testing.T, path string, _ *errfs.FS) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{1}, 0); err != nil { // the first section now claims one pair
				t.Fatal(err)
			}
		}},
		{name: "extended", wantOK: true, alter: func(t *testing.T, path string, _ *errfs.FS) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "injected-read-failure", cause: errfs.ErrInjected, alter: func(_ *testing.T, _ string, fs *errfs.FS) {
			fs.FailAt(errfs.OpReadAt, 1, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			efs := errfs.New(nil)
			var fs runfile.FS = efs
			if tc.wrap != nil {
				fs = tc.wrap(fs)
			}
			s := newTuned[int, int](Options{
				Partitions: 1, MaxBufferedPairs: 64, SpillDir: t.TempDir(), FS: fs,
			}, tuning{blockPairs: 16, compactors: -1})
			defer s.Close()
			ing := s.NewIngester()
			tw := ing.Task(0, 0)
			want := make(map[int][]int)
			for i := 0; i < 300; i++ {
				tw.Emit(i%7, i)
				want[i%7] = append(want[i%7], i)
			}
			stash := s.parts[0].stash
			if s.swapImage == 0 || stash == nil || s.swapBytes.Load() == 0 {
				t.Fatal("the task never swapped a memory image; the test exercises nothing")
			}
			path := stash.rf.path
			if tc.alter != nil {
				tc.alter(t, path, efs)
			}
			err := tw.Commit()
			if ferr := ing.Finish(); err == nil {
				err = ferr
			}
			if tc.wantOK {
				if err != nil {
					t.Fatalf("round failed: %v", err)
				}
				if got := collectGroups(t, s); !reflect.DeepEqual(got, want) {
					t.Fatal("grouped values diverge after the stash was extended")
				}
				return
			}
			if err == nil || !errors.Is(err, runfile.ErrCorrupt) || !strings.Contains(err.Error(), path) {
				t.Fatalf("err = %v, want runfile.ErrCorrupt naming %s", err, path)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
		})
	}
}

// cutOnReadFS truncates each file it creates to keep bytes just before
// the file's first positioned read.
type cutOnReadFS struct {
	runfile.FS
	keep int64
}

func (c cutOnReadFS) CreateTemp(dir, pattern string) (runfile.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &cutOnRead{File: f, keep: c.keep}, nil
}

type cutOnRead struct {
	runfile.File
	keep int64
	cut  bool
}

func (f *cutOnRead) ReadAt(p []byte, off int64) (int, error) {
	if !f.cut {
		f.cut = true
		if err := os.Truncate(f.Name(), f.keep); err != nil {
			return 0, err
		}
	}
	return f.File.ReadAt(p, off)
}
