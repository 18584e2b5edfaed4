package shuffle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
)

type (
	nodeID  int64
	keyPair struct {
		Group int
		Rest  uint64
	}
	keyNamed struct {
		S    string
		Hot  bool
		T    float32
		Tags [2]nodeID
	}
)

// checkKeyOrder pins the invariant every sort, merge and range search
// rests on: SortKeys and a sort by orderOf's comparison produce the
// same sequence, and the comparison is zero exactly for == keys.
func checkKeyOrder[K comparable](t *testing.T, vals []K) {
	t.Helper()
	cmp := orderOf[K]()
	bySort := slices.Clone(vals)
	SortKeys(bySort)
	byCmp := slices.Clone(vals)
	slices.SortStableFunc(byCmp, cmp)
	for i := range bySort {
		if bySort[i] != byCmp[i] {
			t.Fatalf("%T: SortKeys %v, by cmp %v", vals[0], bySort, byCmp)
		}
		if i > 0 && cmp(bySort[i], bySort[i-1]) < 0 {
			t.Fatalf("%T: SortKeys output %v descends at %d under cmp", vals[0], bySort, i)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			if (cmp(a, b) == 0) != (a == b) {
				t.Fatalf("%T: cmp(%v, %v) = %d but == is %v", a, a, b, cmp(a, b), a == b)
			}
		}
	}
}

func TestKeyOrderAgreesWithSortKeys(t *testing.T) {
	checkKeyOrder(t, []int{5, -1, 3, 0, 3})
	checkKeyOrder(t, []int8{5, -1, 3})
	checkKeyOrder(t, []int16{5, -1, 3})
	checkKeyOrder(t, []int32{5, -1, 3})
	checkKeyOrder(t, []int64{5, -1, 3})
	checkKeyOrder(t, []uint{5, 1, 3})
	checkKeyOrder(t, []uint8{5, 1, 3})
	checkKeyOrder(t, []uint16{5, 1, 3})
	checkKeyOrder(t, []uint32{5, 1, 3})
	checkKeyOrder(t, []uint64{5, 1, 3, math.MaxUint64})
	checkKeyOrder(t, []uintptr{5, 1, 3})
	negZero := math.Copysign(0, -1)
	checkKeyOrder(t, []float32{2.5, -1, 0, float32(negZero), float32(math.Inf(1))})
	checkKeyOrder(t, []float64{2.5, -1, 0, negZero, math.Inf(-1)})
	checkKeyOrder(t, []complex128{complex(1, 0), complex(0, 1), complex(negZero, 1), 0})
	type floatKey struct {
		ID int
		F  float32
	}
	checkKeyOrder(t, []floatKey{{1, 0.5}, {1, 0}, {0, 2}, {1, float32(negZero)}, {1, -0.5}})
	checkKeyOrder(t, []string{"b", "a", "c", "", "a b"})
	checkKeyOrder(t, []bool{true, false, true})
	checkKeyOrder(t, []nodeID{10, 2, -7})

	rng := rand.New(rand.NewSource(11))
	pairs := make([]keyPair, 200)
	named := make([]keyNamed, 200)
	for i := range pairs {
		pairs[i] = keyPair{rng.Intn(12), uint64(rng.Intn(12))}
		named[i] = keyNamed{
			S: []string{"", "a", "a b", "b"}[rng.Intn(4)], Hot: rng.Intn(2) == 0,
			T: float32(rng.Intn(3)) - 1, Tags: [2]nodeID{nodeID(rng.Intn(3)), nodeID(rng.Intn(3))},
		}
	}
	checkKeyOrder(t, pairs)
	checkKeyOrder(t, named)

	// The one-time redefinition: composite keys order field-wise, not by
	// formatted value ("{10 5}" < "{2 5}" as strings).
	got := []keyPair{{10, 5}, {2, 5}, {2, 40}}
	SortKeys(got)
	if want := []keyPair{{2, 5}, {2, 40}, {10, 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("SortKeys(struct) = %v, want field-wise %v", got, want)
	}
}

// TestCheckKey: a key type is accepted exactly when it has a key plan,
// and the refusal names the type.
func TestCheckKey(t *testing.T) {
	for _, err := range []error{CheckKey[int](), CheckKey[string](), CheckKey[keyPair](), CheckKey[keyNamed](), CheckKey[complex64]()} {
		if err != nil {
			t.Errorf("planned key refused: %v", err)
		}
	}
	for _, tc := range []struct {
		err  error
		name string
	}{
		{CheckKey[struct{ V any }](), "struct { V interface {} }"},
		{CheckKey[*int](), "*int"},
		{CheckKey[struct{ C chan int }](), "struct { C chan int }"},
		{CheckKey[[2]any](), "[2]interface {}"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.name) {
			t.Errorf("CheckKey = %v, want an error naming %s", tc.err, tc.name)
		}
	}
}

// TestStableHashPinned: the stable hash is pinned forever — a changed
// constant or walk order would silently re-partition cross-process jobs
// mid-upgrade — so the expected values are hard-coded, not computed.
func TestStableHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"int", NewStableHasher[int](0).Hash(42), 0x8985b7289d395a72},
		{"string", NewStableHasher[string](0).Hash("hello world"), 0x8f2de4466d89def8},
		{"struct", NewStableHasher[keyPair](7).Hash(keyPair{2, 3}), 0x770f3ea43361744b},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: stable hash = %#016x, pinned %#016x", tc.name, tc.got, tc.want)
		}
	}
}

// TestStableHashEqualKeysHashEqual is the ±0 regression: +0.0 and -0.0
// are one map key and one group, so they must be one placement, alone
// and inside a struct.
func TestStableHashEqualKeysHashEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	hf := NewStableHasher[float64](0)
	if a, b := hf.Hash(0), hf.Hash(negZero); a != b {
		t.Errorf("float64 +0/-0 hash %#x vs %#x", a, b)
	}
	type fk struct {
		ID int
		F  float32
	}
	hs := NewStableHasher[fk](0)
	if a, b := hs.Hash(fk{1, 0}), hs.Hash(fk{1, float32(negZero)}); a != b {
		t.Errorf("struct +0/-0 hash %#x vs %#x", a, b)
	}
	defer WithSeed(5)()
	if s := New[float64, int](Options{Partitions: 64}); s.PartitionOf(0) != s.PartitionOf(negZero) {
		t.Error("a seeded shuffle places +0 and -0 apart")
	}
}

// stableHashReport hashes a fixed battery of keys of several kinds, one
// line each.
func stableHashReport() string {
	var sb bytes.Buffer
	line := func(h uint64) { fmt.Fprintf(&sb, "%#x\n", h) }
	for i := 0; i < 50; i++ {
		line(NewStableHasher[int](3).Hash(i * 977))
		line(NewStableHasher[string](3).Hash(fmt.Sprint("key-", i)))
		line(NewStableHasher[keyPair](3).Hash(keyPair{i % 7, uint64(i) << 33}))
		line(NewStableHasher[keyNamed](3).Hash(keyNamed{S: fmt.Sprint(i), Hot: i%2 == 0, T: float32(i) / 4, Tags: [2]nodeID{nodeID(i), 1}}))
	}
	return sb.String()
}

// TestStableHashAcrossProcesses re-executes the test binary and checks
// the child computes the very same hashes: nothing process-local (a
// maphash seed, an address, a map order) may reach the stable hash.
func TestStableHashAcrossProcesses(t *testing.T) {
	if os.Getenv("SHUFFLE_STABLE_HASH_CHILD") == "1" {
		fmt.Print(stableHashReport())
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStableHashAcrossProcesses$")
	cmd.Env = append(os.Environ(), "SHUFFLE_STABLE_HASH_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	if string(out) != stableHashReport() {
		t.Errorf("child process hashed differently:\n%s\nparent:\n%s", out, stableHashReport())
	}
}

func TestStableHashSpreadsPartitions(t *testing.T) {
	h := NewStableHasher[int](0)
	var seen [8]int
	for k := 0; k < 1000; k++ {
		seen[h.Hash(k)%8]++
	}
	for p, n := range seen {
		if n < 80 {
			t.Errorf("partition %d got %d of 1000 sequential keys", p, n)
		}
	}
}

// TestKeyPathDoesNotAllocate: the placement hash and the comparison behind
// a struct-key SortKeys and every merge sit on the per-pair data path;
// neither may allocate.
func TestKeyPathDoesNotAllocate(t *testing.T) {
	hp, hn, hi := NewStableHasher[keyPair](1), NewStableHasher[keyNamed](1), NewStableHasher[int](1)
	cp, cn := orderOf[keyPair](), orderOf[keyNamed]()
	p1, p2 := keyPair{3, 1 << 40}, keyPair{3, 1 << 41}
	n1, n2 := keyNamed{S: "a string key", T: 1}, keyNamed{S: "a string key", T: 2}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += hp.Hash(p1) + hn.Hash(n1) + hi.Hash(7)
		if cp(p1, p2) < 0 && cn(n1, n2) < 0 {
			sink++
		}
	}); n != 0 {
		t.Errorf("hash + compare allocate %v times per call, want 0", n)
	}
	keys := make([]keyNamed, 64)
	for i := range keys {
		keys[i] = keyNamed{S: fmt.Sprint(i % 5), T: float32(64 - i)}
	}
	// One comparator closure per sort, nothing per key or comparison.
	if n := testing.AllocsPerRun(20, func() { SortKeys(keys) }); n > 1 {
		t.Errorf("struct-key SortKeys allocates %v times per 64-key sort, want at most 1", n)
	}
	_ = sink
}
