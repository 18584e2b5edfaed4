package shuffle

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runfile"
)

// image is one run image inside a file, as a caller of AdoptRun knows it.
type image struct {
	path        string
	off, length int64
	body        int64 // length of the header + group section
}

// appendImage appends one run image of int keys and int values to the
// file at path — keys in the given order — and returns its coordinates.
// finish false stops after the group section (a writer that died before
// its footer).
func appendImage(t *testing.T, path string, keys []int, groups map[int][]int, finish bool) image {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	w := runfile.NewWriter(f)
	if err := writeGroups(w, keys, groups); err != nil {
		t.Fatal(err)
	}
	end := w.Flush
	if finish {
		end = w.Finish
	}
	if err := end(); err != nil {
		t.Fatal(err)
	}
	return image{path, st.Size(), w.BytesWritten(), w.BodyBytes()}
}

// adoptAll adopts the images, in order, into partition 0 of a fresh
// one-partition shuffle with no spill dir of its own.
func adoptAll(t *testing.T, imgs ...image) *Shuffle[int, int] {
	t.Helper()
	s := New[int, int](Options{Partitions: 1})
	for _, im := range imgs {
		if err := s.AdoptRun(0, im.path, im.off, im.length); err != nil {
			t.Fatalf("AdoptRun(%s@%d+%d): %v", im.path, im.off, im.length, err)
		}
	}
	return s
}

// readAll streams partition 0 into (keys in emitted order, groups).
func readAll(t *testing.T, s *Shuffle[int, int]) ([]int, map[int][]int) {
	t.Helper()
	var keys []int
	groups := make(map[int][]int)
	if err := s.Partition(0).ForEachGroup(func(k int, vs []int) error {
		keys = append(keys, k)
		groups[k] = vs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys, groups
}

// Three runs, two of them sections of one file: the shapes a proc
// reduce task adopts.
var (
	adoptRunA = map[int][]int{1: {10, 11}, 4: {40}, 9: {90, 91, 92}}
	adoptRunB = map[int][]int{2: {20}, 4: {41, 42}}
	adoptRunC = map[int][]int{1: {12}, 9: {93}, 12: {120}}
	adoptWant = map[int][]int{1: {10, 11, 12}, 2: {20}, 4: {40, 41, 42}, 9: {90, 91, 92, 93}, 12: {120}}
)

func adoptFixture(t *testing.T, dir string, finishB bool) []image {
	t.Helper()
	shared, solo := filepath.Join(dir, "shared.run"), filepath.Join(dir, "solo.run")
	return []image{
		appendImage(t, shared, []int{1, 4, 9}, adoptRunA, true),
		appendImage(t, solo, []int{2, 4}, adoptRunB, finishB),
		appendImage(t, shared, []int{1, 9, 12}, adoptRunC, true),
	}
}

// TestAdoptRunReadsLikeSealedRuns: adopted images merge exactly like
// runs the shuffle sealed itself — groups in key order, values
// concatenated in adoption order, whole or range-split — the counting
// pass over them reads no file byte, and Close leaves the files alone.
func TestAdoptRunReadsLikeSealedRuns(t *testing.T) {
	imgs := adoptFixture(t, t.TempDir(), true)
	s := adoptAll(t, imgs...)

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 12 || st.Keys != 5 || st.MaxGroup != 4 || st.RunsMerged != 3 {
		t.Fatalf("Stats over adopted runs = %+v", st)
	}
	ranges := s.Partition(0).PlanReduceRanges(4, 8)
	if len(ranges) < 2 {
		t.Fatalf("planned %d ranges over 12 pairs with target 4", len(ranges))
	}
	if n := s.DiskBytesRead(); n != 0 {
		t.Fatalf("adoption + Stats + range planning read %d run bytes, want 0", n)
	}

	keys, groups := readAll(t, s)
	if !reflect.DeepEqual(keys, []int{1, 2, 4, 9, 12}) || !reflect.DeepEqual(groups, adoptWant) {
		t.Fatalf("whole-partition read: keys %v groups %v", keys, groups)
	}
	if s.DiskBytesRead() == 0 {
		t.Fatal("value read charged nothing to DiskBytesRead")
	}

	rr, err := s.Partition(0).OpenRangeReader()
	if err != nil {
		t.Fatal(err)
	}
	var rkeys []int
	for _, r := range ranges {
		if err := rr.ForEachGroupRange(r, true, func(k int, vs []int) error {
			rkeys = append(rkeys, k)
			if !reflect.DeepEqual(vs, adoptWant[k]) {
				t.Errorf("range read of key %d = %v, want %v", k, vs, adoptWant[k])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rr.Close()
	if !reflect.DeepEqual(rkeys, keys) {
		t.Fatalf("ranges in order yield keys %v, whole read %v", rkeys, keys)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, im := range imgs {
		if _, err := os.Stat(im.path); err != nil {
			t.Fatalf("Close removed a borrowed file: %v", err)
		}
	}
}

// TestAdoptRunTornFooter: an image whose writer never reached its
// footer is adopted through the sequential index scan and reduces
// identically.
func TestAdoptRunTornFooter(t *testing.T) {
	s := adoptAll(t, adoptFixture(t, t.TempDir(), false)...)
	defer s.Close()
	keys, groups := readAll(t, s)
	if !reflect.DeepEqual(keys, []int{1, 2, 4, 9, 12}) || !reflect.DeepEqual(groups, adoptWant) {
		t.Fatalf("read over a footerless image: keys %v groups %v", keys, groups)
	}
}

// forgedImage is a run image whose group section is body (header
// included) and whose well-formed footer claims entries — whatever they
// say.
func forgedImage(body []byte, entries []runfile.IndexEntry) []byte {
	img := append([]byte(nil), body...)
	img = binary.AppendUvarint(img, 1<<31) // end-of-groups marker
	img = binary.AppendUvarint(img, uint64(len(entries)))
	var prevOff int64
	for _, e := range entries {
		img = binary.AppendUvarint(img, 0) // no shared key prefix
		img = binary.AppendUvarint(img, uint64(len(e.Key)))
		img = append(img, e.Key...)
		img = binary.AppendUvarint(img, uint64(e.Count))
		img = binary.AppendUvarint(img, uint64(e.Offset-prevOff))
		img = binary.AppendUvarint(img, uint64(e.ValueBytes))
		prevOff = e.Offset
	}
	img = binary.LittleEndian.AppendUint64(img, uint64(len(body)))
	return append(img, "MRFI"...)
}

// TestAdoptRunRefusesUntrustworthyImages: an image with a lying index,
// an undecodable or out-of-order key, or a torn group section is refused
// whole — ErrCorrupt in the chain, no panic, and not one group of it
// joins the partition.
func TestAdoptRunRefusesUntrustworthyImages(t *testing.T) {
	dir := t.TempDir()
	good := appendImage(t, filepath.Join(dir, "good.run"), []int{1, 4, 9}, adoptRunA, true)
	data, err := os.ReadFile(good.path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(good.path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := runfile.ReadIndex(f, good.length)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := data[:good.body]
	forge := func(mutate func(es []runfile.IndexEntry)) []byte {
		es := append([]runfile.IndexEntry(nil), entries...)
		mutate(es)
		return forgedImage(body, es)
	}
	cases := map[string][]byte{
		"value section past the image": forge(func(es []runfile.IndexEntry) { es[2].ValueBytes = 1 << 20 }),
		"offset past the image":        forge(func(es []runfile.IndexEntry) { es[2].Offset = 1 << 40 }),
		"count no section could hold":  forge(func(es []runfile.IndexEntry) { es[1].Count = 1 << 50 }),
		"keys out of order":            forge(func(es []runfile.IndexEntry) { es[0].Key, es[1].Key = es[1].Key, es[0].Key }),
		"undecodable key":              forge(func(es []runfile.IndexEntry) { es[1].Key = []byte{0x80} }),
		"torn group section":           data[:len(body)-2],
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.run")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			s := adoptAll(t, good)
			defer s.Close()
			err := s.AdoptRun(0, path, 0, int64(len(img)))
			if !errors.Is(err, runfile.ErrCorrupt) {
				t.Fatalf("AdoptRun = %v, want a wrapped runfile.ErrCorrupt", err)
			}
			keys, groups := readAll(t, s)
			if !reflect.DeepEqual(keys, []int{1, 4, 9}) || !reflect.DeepEqual(groups, adoptRunA) {
				t.Fatalf("partition after a refused adoption: keys %v groups %v", keys, groups)
			}
		})
	}
}
