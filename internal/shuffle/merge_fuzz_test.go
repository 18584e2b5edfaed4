package shuffle

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/runfile"
)

// FuzzMergeCursors is the differential check of the package's one k-way
// merge (mergeCursors over rangeCursors): disk runs (spool sections
// written by addRun, empty ones included) and in-memory runs, in seal
// order, under a random KeyRange clamp. Every consumer must equal a
// naive reference that concatenates each key's values in seal order —
// countGroups, readGroups with and without a reused slice (and the
// DiskBytesRead it meters), compaction (mergeDiskRuns) with and without
// a combiner, and mergeRuns over the in-memory runs. kind picks an int,
// a two-word struct or a string key; run r holds pairs pairs of random
// keys among keys distinct ones, none when bit r%64 of empty is set;
// lo and hi pick the clamp's bounds (0: unbounded).
func FuzzMergeCursors(f *testing.F) {
	// The hamming_spill shape: 48 sealed runs of 2 048 pairs over 1 536
	// keys (q = 64), two-word struct keys.
	f.Add(uint8(1), int64(1), uint8(48), uint8(0), uint16(2048), uint16(1536), uint64(0), uint16(0), uint16(0))
	f.Add(uint8(0), int64(2), uint8(3), uint8(2), uint16(40), uint16(10), uint64(0b1010), uint16(3), uint16(8))
	f.Add(uint8(2), int64(3), uint8(5), uint8(3), uint16(64), uint16(300), uint64(0b10001), uint16(50), uint16(20))
	f.Add(uint8(1), int64(4), uint8(1), uint8(1), uint16(7), uint16(1), uint64(0), uint16(1), uint16(0))
	f.Add(uint8(2), int64(5), uint8(0), uint8(0), uint16(0), uint16(0), uint64(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, disk, mem uint8, pairs, keys uint16, empty uint64, lo, hi uint16) {
		sh := mergeShape{
			seed: seed, disk: int(disk) % 65, mem: int(mem) % 5, pairs: int(pairs) % 2049,
			keys: int(keys)%4096 + 1, empty: empty,
		}
		sh.lo, sh.hi = int(lo)%(sh.keys+1), int(hi)%(sh.keys+1)
		switch kind % 3 {
		case 0:
			checkMerge(t, sh, func(id int) int { return (id - sh.keys/2) * 7919 })
		case 1:
			checkMerge(t, sh, func(id int) keyPair { return keyPair{id % 61, uint64(id)} })
		default:
			checkMerge(t, sh, func(id int) string {
				if id == 0 {
					return ""
				}
				return fmt.Sprint("k", id) // k1, k12, k123: shared prefixes
			})
		}
	})
}

// mergeShape is one FuzzMergeCursors input, bounded.
type mergeShape struct {
	seed        int64
	disk, mem   int // run counts, disk runs first in seal order
	pairs, keys int
	empty       uint64
	lo, hi      int // clamp bounds: 0 unbounded, else key id+1
}

// mergeGroup is one merged group as a consumer saw it.
type mergeGroup[K comparable] struct {
	Key K
	Vs  []int
}

func checkMerge[K comparable](t *testing.T, sh mergeShape, key func(id int) K) {
	cmp := orderOf[K]()
	var kr KeyRange[K]
	if sh.lo > 0 {
		kr.Lo, kr.HasLo = key(sh.lo-1), true
	}
	if sh.hi > 0 {
		kr.Hi, kr.HasHi = key(sh.hi-1), true
	}
	inRange := func(k K) bool {
		return (!kr.HasLo || cmp(k, kr.Lo) >= 0) && (!kr.HasHi || cmp(k, kr.Hi) < 0)
	}

	s := newTuned[K, int](Options{Partitions: 1, MaxBufferedPairs: 1, SpillDir: t.TempDir()}, tuning{compactors: -1})
	defer s.Close()
	sp := &spool[K, int]{s: s, pattern: "mr-spool-*.run", kind: "seal spool"}
	defer sp.close(nil)
	var enc GroupEncoder[K, int]
	var disk []diskRun[K]
	var mem []*memRun[K, int]
	// The references: each key's values in seal order, over every run,
	// over the disk runs alone and over the in-memory runs alone.
	all, onDisk, inMem := map[K][]int{}, map[K][]int{}, map[K][]int{}
	var diskRead int64 // value-section bytes of the disk groups in kr
	rng := rand.New(rand.NewSource(sh.seed))
	v := 0
	for r := 0; r < sh.disk+sh.mem; r++ {
		n := sh.pairs
		if sh.empty>>(r%64)&1 != 0 {
			n = 0
		}
		ps := make([]Pair[K, int], n)
		for i := range ps {
			k := key(rng.Intn(sh.keys))
			ps[i] = Pair[K, int]{k, v}
			v++
			all[k] = append(all[k], ps[i].Value)
			if r < sh.disk {
				onDisk[k] = append(onDisk[k], ps[i].Value)
			} else {
				inMem[k] = append(inMem[k], ps[i].Value)
			}
		}
		run := new(memRun[K, int])
		run.sortFrom(ps)
		if r >= sh.disk {
			mem = append(mem, run)
			continue
		}
		dr, err := sp.addRun(run.keys, int64(n), func(w *runfile.Writer) error { return enc.run(w, run) })
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range dr.index {
			if inRange(e.key) {
				diskRead += e.valBytes
			}
		}
		disk = append(disk, dr)
	}
	want := func(ref map[K][]int, keep func(K) bool, combine func(K, []int) []int) []mergeGroup[K] {
		var gs []mergeGroup[K]
		for k, vs := range ref {
			if !keep(k) {
				continue
			}
			if combine != nil {
				if vs = combine(k, slices.Clone(vs)); len(vs) == 0 {
					continue
				}
			}
			gs = append(gs, mergeGroup[K]{k, vs})
		}
		slices.SortFunc(gs, func(a, b mergeGroup[K]) int { return cmp(a.Key, b.Key) })
		return gs
	}
	everyKey := func(K) bool { return true }
	check := func(what string, got, want []mergeGroup[K]) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d groups differ from the reference's %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		}
	}
	// read merges runs through views, collecting each group.
	read := func(runs []diskRun[K], mem []*memRun[K, int], r KeyRange[K], reuse bool) []mergeGroup[K] {
		t.Helper()
		views, closeAll, err := openRunViews(s, runs)
		defer closeAll()
		if err != nil {
			t.Fatal(err)
		}
		var gs []mergeGroup[K]
		err = mergeCursors(rangeCursors(s, runs, views, mem, cmp, r), cmp, readGroups(reuse, func(k K, vs []int) error {
			gs = append(gs, mergeGroup[K]{k, slices.Clone(vs)})
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return gs
	}

	// Counting: index counts only, no disk byte.
	var counted []mergeGroup[K]
	err := mergeCursors(rangeCursors(s, disk, nil, mem, cmp, kr), cmp, countGroups[K, int](func(k K, n int) error {
		counted = append(counted, mergeGroup[K]{k, []int{n}})
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	count := func(_ K, vs []int) []int { return []int{len(vs)} }
	check("countGroups", counted, want(all, inRange, count))
	if got := s.DiskBytesRead(); got != 0 {
		t.Fatalf("counting merge read %d disk bytes", got)
	}

	// Reading, with a fresh slice per group and with one reused slice.
	for _, reuse := range []bool{false, true} {
		before := s.DiskBytesRead()
		check(fmt.Sprintf("readGroups (reuse %v)", reuse), read(disk, mem, kr, reuse), want(all, inRange, nil))
		if got := s.DiskBytesRead() - before; got != diskRead {
			t.Fatalf("readGroups (reuse %v) metered %d disk bytes, the clamped sections hold %d", reuse, got, diskRead)
		}
	}

	// Compaction of the disk runs, raw and combined; its output is
	// footerless, so the index is checked against a scan of its bytes.
	sumDrop := func(_ K, vs []int) []int {
		sum := 0
		for _, v := range vs {
			sum += v
		}
		if sum%5 == 0 {
			return nil
		}
		return []int{sum}
	}
	for _, combine := range []func(K, []int) []int{nil, sumDrop} {
		s.combiner = combine
		path, w, keys, err := mergeDiskRuns(s, disk)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := runfile.ScanIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != w.BytesWritten() || fmt.Sprint(scanned) != fmt.Sprint(w.Index()) {
			t.Fatalf("compacted run: %d bytes, index %v; writer says %d bytes, index %v", len(data), scanned, w.BytesWritten(), w.Index())
		}
		rf := &runFile{path: path}
		rf.refs.Store(1)
		out := diskRun[K]{file: rf, size: w.BytesWritten(), pairs: w.Pairs(), index: typedIndex(keys, w.Index())}
		check(fmt.Sprintf("compaction (combiner %v)", combine != nil), read([]diskRun[K]{out}, nil, KeyRange[K]{}, false), want(onDisk, everyKey, combine))
		if err := rf.release(s.fs, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.combiner = nil

	if len(mem) > 0 {
		m := mergeRuns(mem)
		var gs []mergeGroup[K]
		for g, k := range m.keys {
			gs = append(gs, mergeGroup[K]{k, m.group(g)})
		}
		check("mergeRuns", gs, want(inMem, everyKey, nil))
	}
}
