// Key order and key placement: the one place a key's canonical order,
// the check that a key type has one, and its hash live.
//
// A shuffle key type is one with a compiled key plan
// (runfile.KeyPlanFor): its parts are bools, numbers and strings —
// alone, or composed through structs and arrays, named or not. It
// orders field-wise in declaration order: numerically for numbers,
// bytewise for strings, false before true. That order is strict and
// total and agrees with ==, so every sort, merge, range cut and run
// index assumes one position per key and one group per position. A
// type with an interface, pointer or channel in it has no plan; CheckKey
// refuses it, both executors call CheckKey before any task runs, and New
// panics on it. A key must also be == to itself: a NaN in a float or
// complex field fails the round at TaskWriter.Emit (ErrNaNKey).
//
// Placement is maphash with a per-process seed by default. Wherever it
// must instead be reproducible — under WithSeed, and always across the
// processes of internal/proc — it is StableHasher: a pure function of
// the seed and the key's value.
package shuffle

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/runfile"
)

// sharedSeed makes every Hasher in the process agree on key placement,
// so that independently created hashers (for example one per job round)
// route the same key to the same partition.
var sharedSeed = maphash.MakeSeed()

// pinnedHash is the WithSeed test hook: when armed, new Hashers place
// keys with a StableHasher under the given seed instead of the
// process-random maphash seed, so partition-placement-dependent
// observations (per-partition profiles, makespan, spill counts) are
// reproducible across runs and processes.
var pinnedHash struct {
	mu   sync.Mutex
	on   bool
	seed uint64
}

// WithSeed pins key placement to a deterministic seed and returns a
// restore func. Hashers (and therefore Shuffles and engine rounds)
// created between WithSeed and restore place every key as a pure
// function of the seed and the key's value — identical in every
// process. Intended for tests; do not leave pinned in production paths.
func WithSeed(seed uint64) (restore func()) {
	pinnedHash.mu.Lock()
	prevOn, prevSeed := pinnedHash.on, pinnedHash.seed
	pinnedHash.on, pinnedHash.seed = true, seed
	pinnedHash.mu.Unlock()
	return func() {
		pinnedHash.mu.Lock()
		pinnedHash.on, pinnedHash.seed = prevOn, prevSeed
		pinnedHash.mu.Unlock()
	}
}

// Hasher hashes comparable keys with the runtime's typed hash, or with
// a StableHasher when created under WithSeed.
type Hasher[K comparable] struct {
	seed   maphash.Seed
	pinned bool
	stable StableHasher[K]
}

// NewHasher returns a Hasher using the process-wide seed, or the
// deterministic pinned hasher when WithSeed is in effect.
func NewHasher[K comparable]() Hasher[K] {
	pinnedHash.mu.Lock()
	on, ps := pinnedHash.on, pinnedHash.seed
	pinnedHash.mu.Unlock()
	if on {
		return Hasher[K]{pinned: true, stable: NewStableHasher[K](ps)}
	}
	return Hasher[K]{seed: sharedSeed}
}

// Hash returns a 64-bit hash of the key. By default this is the typed
// fast path: maphash.Comparable dispatches to the runtime's native hash
// for K's memory layout with no formatting, boxing, or reflection. A
// pinned Hasher returns the StableHasher's hash.
func (h Hasher[K]) Hash(k K) uint64 {
	if h.pinned {
		return h.stable.Hash(k)
	}
	return maphash.Comparable(h.seed, k)
}

// StableHasher hashes keys to the same value in every process, which
// the default Hasher's per-process maphash seed cannot: the
// multi-process runtime (internal/proc) partitions map output in worker
// processes and merges it in reduce processes, so placement must be a
// function of the key's value and nothing else. It is the key plan's
// hash (runfile.KeyPlan.Hash — no encoding, no allocation), so equal
// keys hash equal. Safe for concurrent use.
type StableHasher[K comparable] struct {
	plan *runfile.KeyPlan
	seed uint64
}

// NewStableHasher returns K's stable hasher under the given seed. K
// must pass CheckKey.
func NewStableHasher[K comparable](seed uint64) StableHasher[K] {
	return StableHasher[K]{plan: runfile.KeyPlanFor[K](), seed: seed}
}

// Hash returns the key's stable 64-bit hash.
func (h StableHasher[K]) Hash(k K) uint64 {
	return h.plan.Hash(h.seed, unsafe.Pointer(&k))
}

// CheckKey reports whether K can be a shuffle key — whether it has a
// compiled key plan — with an error naming the type when it cannot.
func CheckKey[K comparable]() error {
	if runfile.KeyPlanFor[K]() == nil {
		return fmt.Errorf("shuffle: key type %v has no canonical order: keys must be made of bools, numbers and strings (no interface, pointer or channel)", reflect.TypeFor[K]())
	}
	return nil
}

// ErrNaNKey fails a round whose map emitted a key that is not == to
// itself (a NaN): such a key could never find its own group.
var ErrNaNKey = errors.New("shuffle: a key with a NaN in it is not == to itself")

// orderOf returns K's canonical order as a three-way comparison, zero
// exactly when the keys are ==. K must pass CheckKey. Resolve it once
// per sort or merge, not per comparison — the lookup reflects on K.
func orderOf[K comparable]() func(a, b K) int {
	if cmp := scalarCmp[K](); cmp != nil {
		return cmp
	}
	plan := runfile.KeyPlanFor[K]()
	return func(a, b K) int {
		return plan.Compare(unsafe.Pointer(&a), unsafe.Pointer(&b))
	}
}

// scalarCmp is the plan's comparison specialised for a key that is a
// single number or string (named or not), or nil for any other key: the
// same order as the plan's one-op replay without its loop and kind
// dispatch, which a merge heap would pay on every comparison.
func scalarCmp[K comparable]() func(a, b K) int {
	switch reflect.TypeFor[K]().Kind() {
	case reflect.Int:
		return typedCmp[K, int]
	case reflect.Int8:
		return typedCmp[K, int8]
	case reflect.Int16:
		return typedCmp[K, int16]
	case reflect.Int32:
		return typedCmp[K, int32]
	case reflect.Int64:
		return typedCmp[K, int64]
	case reflect.Uint:
		return typedCmp[K, uint]
	case reflect.Uint8:
		return typedCmp[K, uint8]
	case reflect.Uint16:
		return typedCmp[K, uint16]
	case reflect.Uint32:
		return typedCmp[K, uint32]
	case reflect.Uint64:
		return typedCmp[K, uint64]
	case reflect.Uintptr:
		return typedCmp[K, uintptr]
	case reflect.Float32:
		return typedCmp[K, float32]
	case reflect.Float64:
		return typedCmp[K, float64]
	case reflect.String:
		return typedCmp[K, string]
	}
	return nil
}

// typedCmp compares two keys whose underlying type is T.
func typedCmp[K comparable, T cmp.Ordered](a, b K) int {
	return cmp.Compare(*(*T)(unsafe.Pointer(&a)), *(*T)(unsafe.Pointer(&b)))
}

// SortKeys sorts keys in the package's canonical order (see the
// package comment of this file): slices.Sort on the concrete type for
// the unnamed number and string kinds (pdqsort, no indirection), the
// compiled key plan for every other key type.
func SortKeys[K comparable](keys []K) {
	switch ks := any(keys).(type) {
	case []int:
		slices.Sort(ks)
	case []int8:
		slices.Sort(ks)
	case []int16:
		slices.Sort(ks)
	case []int32:
		slices.Sort(ks)
	case []int64:
		slices.Sort(ks)
	case []uint:
		slices.Sort(ks)
	case []uint8:
		slices.Sort(ks)
	case []uint16:
		slices.Sort(ks)
	case []uint32:
		slices.Sort(ks)
	case []uint64:
		slices.Sort(ks)
	case []uintptr:
		slices.Sort(ks)
	case []float32:
		slices.Sort(ks)
	case []float64:
		slices.Sort(ks)
	case []string:
		slices.Sort(ks)
	default:
		slices.SortFunc(keys, orderOf[K]())
	}
}
