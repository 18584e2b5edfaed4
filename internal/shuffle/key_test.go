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
	// keyLoose has no plan: V is an interface, so its keys order by
	// formatted value and {1} ties {"1"}.
	keyLoose struct{ V any }
)

// checkKeyOrder pins the invariant every sort, merge and range search
// rests on: SortKeys and a sort by orderOf's comparison produce the
// same sequence, and the comparison is zero exactly for == keys when
// the order claims to be strict.
func checkKeyOrder[K comparable](t *testing.T, wantStrict bool, vals []K) {
	t.Helper()
	ord := orderOf[K]()
	if ord.strict != wantStrict {
		t.Fatalf("%T: strict = %v, want %v", vals[0], ord.strict, wantStrict)
	}
	bySort := slices.Clone(vals)
	SortKeys(bySort)
	byCmp := slices.Clone(vals)
	slices.SortStableFunc(byCmp, ord.cmp)
	for i := range bySort {
		// Compare through cmp, not ==: a non-strict order may permute
		// the keys of one tie class.
		if ord.cmp(bySort[i], byCmp[i]) != 0 {
			t.Fatalf("%T: SortKeys %v, by cmp %v", vals[0], bySort, byCmp)
		}
		if i > 0 && ord.cmp(bySort[i], bySort[i-1]) < 0 {
			t.Fatalf("%T: SortKeys output %v descends at %d under cmp", vals[0], bySort, i)
		}
	}
	if !ord.strict {
		return
	}
	for _, a := range vals {
		for _, b := range vals {
			if (ord.cmp(a, b) == 0) != (a == b) {
				t.Fatalf("%T: cmp(%v, %v) = %d but == is %v", a, a, b, ord.cmp(a, b), a == b)
			}
		}
	}
}

func TestKeyOrderAgreesWithSortKeys(t *testing.T) {
	checkKeyOrder(t, true, []int{5, -1, 3, 0, 3})
	checkKeyOrder(t, true, []int8{5, -1, 3})
	checkKeyOrder(t, true, []int16{5, -1, 3})
	checkKeyOrder(t, true, []int32{5, -1, 3})
	checkKeyOrder(t, true, []int64{5, -1, 3})
	checkKeyOrder(t, true, []uint{5, 1, 3})
	checkKeyOrder(t, true, []uint8{5, 1, 3})
	checkKeyOrder(t, true, []uint16{5, 1, 3})
	checkKeyOrder(t, true, []uint32{5, 1, 3})
	checkKeyOrder(t, true, []uint64{5, 1, 3, math.MaxUint64})
	checkKeyOrder(t, true, []uintptr{5, 1, 3})
	checkKeyOrder(t, true, []float32{2.5, -1, 0})
	checkKeyOrder(t, true, []float64{2.5, -1, 0, math.Copysign(0, -1), math.Inf(-1)})
	checkKeyOrder(t, true, []string{"b", "a", "c", "", "a b"})
	checkKeyOrder(t, true, []bool{true, false, true})
	checkKeyOrder(t, true, []nodeID{10, 2, -7})

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
	checkKeyOrder(t, true, pairs)
	checkKeyOrder(t, true, named)

	// The one-time redefinition: composite keys order field-wise, not by
	// formatted value ("{10 5}" < "{2 5}" as strings).
	got := []keyPair{{10, 5}, {2, 5}, {2, 40}}
	SortKeys(got)
	if want := []keyPair{{2, 5}, {2, 40}, {10, 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("SortKeys(struct) = %v, want field-wise %v", got, want)
	}

	// Unplannable kinds keep the formatted order, ties and all.
	checkKeyOrder(t, false, []keyLoose{{"b"}, {1}, {"1"}, {10}, {2}, {"a"}})
	if ord := orderOf[keyLoose](); ord.cmp(keyLoose{1}, keyLoose{"1"}) != 0 || ord.cmp(keyLoose{10}, keyLoose{2}) >= 0 {
		t.Error("formatted fallback must tie {1} with {\"1\"} and put {10} before {2}")
	}
}

// TestStableHashPinned: the stable hash is pinned forever — a changed
// constant or walk order would silently re-partition cross-process jobs
// mid-upgrade — so the expected values are hard-coded, not computed.
func TestStableHashPinned(t *testing.T) {
	hash := func(h uint64, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"int", hash(NewStableHasher[int](0).Hash(42)), 0x8985b7289d395a72},
		{"string", hash(NewStableHasher[string](0).Hash("hello world")), 0x8f2de4466d89def8},
		{"struct", hash(NewStableHasher[keyPair](7).Hash(keyPair{2, 3})), 0x770f3ea43361744b},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: stable hash = %#016x, pinned %#016x", tc.name, tc.got, tc.want)
		}
	}
	// Unplannable kinds hash their codec bytes (not pinned: gob's wire
	// form embeds process-assigned type ids), and fail when they have none.
	loose := NewStableHasher[keyLoose](0)
	if hash(loose.Hash(keyLoose{"x"})) != hash(loose.Hash(keyLoose{"x"})) || hash(loose.Hash(keyLoose{"x"})) == hash(loose.Hash(keyLoose{"y"})) {
		t.Error("codec-bytes fallback is not a function of the key value")
	}
	if _, err := NewStableHasher[struct{ C chan int }](0).Hash(struct{ C chan int }{}); err == nil {
		t.Error("a key with neither plan nor codec encoding must fail to hash")
	}
}

// TestStableHashEqualKeysHashEqual is the ±0 regression: +0.0 and -0.0
// are one map key and one group, so they must be one placement, alone
// and inside a struct.
func TestStableHashEqualKeysHashEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	hf := NewStableHasher[float64](0)
	a, _ := hf.Hash(0)
	b, _ := hf.Hash(negZero)
	if a != b {
		t.Errorf("float64 +0/-0 hash %#x vs %#x", a, b)
	}
	type fk struct {
		ID int
		F  float32
	}
	hs := NewStableHasher[fk](0)
	a, _ = hs.Hash(fk{1, 0})
	b, _ = hs.Hash(fk{1, float32(negZero)})
	if a != b {
		t.Errorf("struct +0/-0 hash %#x vs %#x", a, b)
	}
	restore := WithSeed(5)
	defer restore()
	if h := NewHasher[float64](); h.Hash(0) != h.Hash(negZero) {
		t.Error("pinned Hasher places +0 and -0 apart")
	}
}

// stableHashReport hashes a fixed battery of keys of several kinds, one
// line each.
func stableHashReport() string {
	var sb bytes.Buffer
	line := func(h uint64, err error) { fmt.Fprintf(&sb, "%#x %v\n", h, err) }
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
		hv, err := h.Hash(k)
		if err != nil {
			t.Fatal(err)
		}
		seen[hv%8]++
	}
	for p, n := range seen {
		if n < 80 {
			t.Errorf("partition %d got %d of 1000 sequential keys", p, n)
		}
	}
}

// TestKeyPathDoesNotAllocate: the pinned hash and the comparison behind
// a struct-key SortKeys and every merge sit on the per-pair data path;
// neither may allocate.
func TestKeyPathDoesNotAllocate(t *testing.T) {
	defer WithSeed(1)()
	hp, hn := NewHasher[keyPair](), NewHasher[keyNamed]()
	cp, cn := orderOf[keyPair]().cmp, orderOf[keyNamed]().cmp
	p1, p2 := keyPair{3, 1 << 40}, keyPair{3, 1 << 41}
	n1, n2 := keyNamed{S: "a string key", T: 1}, keyNamed{S: "a string key", T: 2}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += hp.Hash(p1) + hn.Hash(n1) + NewHasher[int]().Hash(7)
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
