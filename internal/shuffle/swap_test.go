package shuffle

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

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

// Keys with no memory image: a string field, and a bool (not every
// byte is a valid bool).
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
// before it commits — the set-up that swapped staged blocks to a stash
// file when partitions absorbed in task order — over pair types with a
// memory image (numbers only) and codec-framed ones (a string, a bool,
// a struct with a string), and requires the grouped values to equal
// the naive task-order reference. The tasks' runs are sealed and
// published in commit order, so nothing is staged: the round creates no
// mr-swap-* file and reports SwapBytes 0. In the rotating variant every
// task's first attempt is aborted after it sealed, so the seal spool
// rotates on the dead runs mid-round.
func TestSwapPaths(t *testing.T) {
	for _, rotate := range []int64{0, 1} {
		name := func(s string) string {
			if rotate > 0 {
				return s + "/rotating"
			}
			return s
		}
		t.Run(name("int-int"), func(t *testing.T) {
			checkSealPath(t, rotate, func(k int) int { return k }, func(v int) int { return v })
		})
		t.Run(name("int-padded-struct"), func(t *testing.T) {
			checkSealPath(t, rotate, func(k int) int { return k }, cellOf)
		})
		t.Run(name("struct-key"), func(t *testing.T) {
			checkSealPath(t, rotate, func(k int) splitKey { return splitKey{k % 3, k} }, func(v int) int { return v })
		})
		t.Run(name("string-key"), func(t *testing.T) {
			checkSealPath(t, rotate, strconv.Itoa, func(v int) int { return v })
		})
		t.Run(name("struct-key-with-string"), func(t *testing.T) {
			checkSealPath(t, rotate, func(k int) namedKey { return namedKey{"k" + strconv.Itoa(k%4), k} }, cellOf)
		})
		t.Run(name("struct-key-with-bool"), func(t *testing.T) {
			checkSealPath(t, rotate, func(k int) flagKey { return flagKey{k%2 == 0, k} }, func(v int) int { return v })
		})
	}
}

func checkSealPath[K comparable, V any](t *testing.T, rotate int64, key func(int) K, val func(int) V) {
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
	fs := &createLog{FS: errfs.New(nil)}
	s := newTuned[K, V](Options{
		Partitions: 2, MaxBufferedPairs: 64, SpillDir: t.TempDir(), FS: fs,
	}, tuning{rotateBytes: rotate})
	defer s.Close()
	in := s.NewIngester(2)
	for ti, ps := range tasks {
		if rotate > 0 {
			tw := in.Task(ti, 0)
			for _, p := range ps {
				tw.Emit(p.Key, p.Value)
			}
			tw.Abort()
		}
		tw := in.Task(ti, 1)
		for _, p := range ps {
			tw.Emit(p.Key, p.Value)
		}
		if err := tw.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Finish(); err != nil {
		t.Fatal(err)
	}
	checkSpillFiles(t, s)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillEvents == 0 || st.BytesSpilled == 0 {
		t.Fatal("no task sealed to disk; the test exercises nothing")
	}
	if st.SwapBytes != 0 {
		t.Errorf("SwapBytes = %d, want 0", st.SwapBytes)
	}
	if len(fs.names) == 0 {
		t.Fatal("the round created no file")
	}
	for _, name := range fs.names {
		if strings.Contains(name, "mr-swap-") {
			t.Errorf("the round created swap file %s", name)
		}
	}
	if rotate > 0 && st.BytesReclaimed == 0 {
		t.Error("aborted attempts' runs were never reclaimed: the spool did not rotate")
	}
	if got := collectGroups(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("grouped values diverge from the naive task-order reference")
	}
}

// createLog records the names of the files created through it.
type createLog struct {
	runfile.FS
	names []string
}

func (c *createLog) CreateTemp(dir, pattern string) (runfile.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err == nil {
		c.names = append(c.names, f.Name())
	}
	return f, err
}
