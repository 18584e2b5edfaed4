// Key order and key placement: the one place a key's canonical order,
// the check that a key type has one, and its hash live.
//
// A shuffle key type is one with a compiled plan (runfile.PlanFor),
// the same plan its run-file codec replays: its parts are bools,
// numbers and strings — alone, or composed through structs and arrays,
// named or not. It orders field-wise in declaration order: numerically
// for numbers, bytewise for strings, false before true. That order is
// strict and total and agrees with ==, so every sort, merge, range cut
// and run index assumes one position per key and one group per
// position. A type with an interface, pointer or channel in it has no
// plan; CheckKey refuses it (CheckTypes also refuses a spilled value
// type with no codec), both executors check before any task runs, and
// New panics on it. A key must also be == to itself: a NaN in a float or
// complex field fails the round at TaskWriter.Emit (ErrNaNKey).
//
// A key of at most two parts, all numbers or bools (an int, a float64,
// a two-field struct of numbers), also has a normalized form
// (runfile.Plan.Norm): two words whose lexicographic order is the key
// order. SortKeys and a seal's sort of a writer's bucket (sortOrder)
// radix-sort such keys on their words, and the merge's tree of losers
// holds them in its leaves and compares words inline; every other key
// sorts and merges by the plan's Compare (orderOf).
//
// Placement is StableHasher: a pure function of the seed (0 unless
// WithSeed sets it) and the key's value, so every process — and every
// run — places a key alike.
package shuffle

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/runfile"
)

// placementSeed is the seed every Shuffle created from now on hashes
// its keys under; 0 unless WithSeed sets it.
var placementSeed atomic.Uint64

// WithSeed sets the seed of key placement and returns a restore func.
// Shuffles (and therefore engine rounds) created between WithSeed and
// restore place every key under that seed; without it they place under
// seed 0, as proc's workers always do.
func WithSeed(seed uint64) (restore func()) {
	prev := placementSeed.Swap(seed)
	return func() { placementSeed.Store(prev) }
}

// StableHasher is the shuffle's one key hash: it hashes a key to the
// same value in every process, as the multi-process runtime
// (internal/proc) needs — it partitions map output in worker processes
// and merges it in reduce processes, so placement must be a function of
// the seed and the key's value and nothing else. It is the key plan's
// hash (runfile.Plan.Hash — no encoding, no allocation), so equal keys
// hash equal. Safe for concurrent use.
type StableHasher[K comparable] struct {
	plan *runfile.Plan
	seed uint64
}

// NewStableHasher returns K's stable hasher under the given seed. K
// must pass CheckKey.
func NewStableHasher[K comparable](seed uint64) StableHasher[K] {
	return StableHasher[K]{plan: runfile.PlanFor[K](), seed: seed}
}

// Hash returns the key's stable 64-bit hash.
func (h StableHasher[K]) Hash(k K) uint64 {
	return h.plan.Hash(h.seed, unsafe.Pointer(&k))
}

// CheckKey reports whether K can be a shuffle key — whether it has a
// compiled key plan — with an error naming the type when it cannot.
func CheckKey[K comparable]() error {
	if runfile.PlanFor[K]() == nil {
		return fmt.Errorf("shuffle: key type %v has no canonical order: keys must be made of bools, numbers and strings (no interface, pointer or channel)", reflect.TypeFor[K]())
	}
	return nil
}

// CheckTypes reports whether K and V can make a shuffle, with an error
// naming the type that cannot: K must pass CheckKey and, when the
// shuffle spills, V must have a run-file codec (runfile.CheckCodec).
func CheckTypes[K comparable, V any](spill bool) error {
	if err := CheckKey[K](); err != nil || !spill {
		return err
	}
	return runfile.CheckCodec[V]()
}

// ErrNaNKey fails a round whose map emitted a key that is not == to
// itself (a NaN): such a key could never find its own group.
var ErrNaNKey = errors.New("shuffle: a key with a NaN in it is not == to itself")

// orderOf returns K's canonical order as a three-way comparison, zero
// exactly when the keys are ==. K must pass CheckKey. Resolve it once
// per sort or merge, not per comparison — the lookup reflects on K.
// Sorts and merges of a key with a normalized form compare its words
// instead (SortKeys, loserTree); a string key skips the plan's loop.
func orderOf[K comparable]() func(a, b K) int {
	if reflect.TypeFor[K]().Kind() == reflect.String {
		return func(a, b K) int {
			return strings.Compare(*(*string)(unsafe.Pointer(&a)), *(*string)(unsafe.Pointer(&b)))
		}
	}
	plan := runfile.PlanFor[K]()
	return func(a, b K) int {
		return plan.Compare(unsafe.Pointer(&a), unsafe.Pointer(&b))
	}
}

// normKey is what the radix sort moves: a key's normalized words (w[0]
// the more significant) and the key (SortKeys) or its index (sortOrder).
type normKey[T any] struct {
	w [2]uint64
	v T
}

// sortScratch recycles SortKeys' buffers, of whichever key type sorted
// last; orderScratch recycles sortOrder's, one type for every K.
var sortScratch, orderScratch sync.Pool

// pooledSort takes a buffer of at least size entries from pool.
func pooledSort[T any](pool *sync.Pool, size int) *[]normKey[T] {
	pooled, _ := pool.Get().(*[]normKey[T])
	if pooled == nil || cap(*pooled) < size {
		pooled = &[]normKey[T]{}
		*pooled = make([]normKey[T], size)
	}
	*pooled = (*pooled)[:size]
	return pooled
}

// SortKeys sorts keys in the package's canonical order (see the
// package comment of this file). A key with a normalized form
// (runfile.Plan.Norm) is sorted on its words: an LSD radix sort over
// only the bytes that vary among the keys, through one pooled scratch
// buffer of twice the keys' length. Any other key (a string part, more
// than two parts) is pdqsorted by orderOf, a plain []string by
// slices.Sort.
func SortKeys[K comparable](keys []K) {
	if ks, ok := any(keys).([]string); ok {
		slices.Sort(ks)
		return
	}
	plan := runfile.PlanFor[K]()
	if !plan.Normalized() {
		slices.SortFunc(keys, orderOf[K]())
		return
	}
	n := len(keys)
	pooled := pooledSort[K](&sortScratch, 2*n) // the radix passes ping-pong between two halves
	defer sortScratch.Put(pooled)
	buf := *pooled
	src := buf[:n]
	var vary [2]uint64 // bits in which some key differs from the first
	for i := range keys {
		w0, w1 := plan.Norm(unsafe.Pointer(&keys[i]))
		src[i] = normKey[K]{[2]uint64{w0, w1}, keys[i]}
		vary[0] |= w0 ^ src[0].w[0]
		vary[1] |= w1 ^ src[0].w[1]
	}
	src = radixSort(src, buf[n:], vary)
	for i := range src {
		keys[i] = src[i].v
	}
}

// sortOrder sorts the indexes of pairs by key, stably — equal keys keep
// their index order. The order lives in pooled, a buffer from
// orderScratch that the caller puts back once done with it. A key with
// a normalized form is radix-sorted on (words, index) like SortKeys;
// any other is sorted by orderOf with the index breaking ties.
func sortOrder[K comparable, V any](pairs []Pair[K, V]) (order []normKey[int], pooled *[]normKey[int]) {
	n := len(pairs)
	pooled = pooledSort[int](&orderScratch, 2*n)
	buf := *pooled
	order = buf[:n]
	if plan := runfile.PlanFor[K](); plan.Normalized() {
		var vary [2]uint64
		for i := range pairs {
			w0, w1 := plan.Norm(unsafe.Pointer(&pairs[i].Key))
			order[i] = normKey[int]{[2]uint64{w0, w1}, i}
			vary[0] |= w0 ^ order[0].w[0]
			vary[1] |= w1 ^ order[0].w[1]
		}
		return radixSort(order, buf[n:], vary), pooled
	}
	for i := range order {
		order[i] = normKey[int]{v: i}
	}
	cmp := orderOf[K]()
	slices.SortFunc(order, func(a, b normKey[int]) int {
		if c := cmp(pairs[a.v].Key, pairs[b.v].Key); c != 0 {
			return c
		}
		return a.v - b.v
	})
	return order, pooled
}

// radixSort sorts src by its words with one stable counting pass per
// byte that varies, least significant first, alternating between src
// and dst; it returns whichever holds the result.
func radixSort[T any](src, dst []normKey[T], vary [2]uint64) []normKey[T] {
	for pass := 0; pass < 16; pass++ {
		word, shift := 1-pass/8, uint(pass%8)*8
		if byte(vary[word]>>shift) == 0 {
			continue
		}
		var start [256]int
		for i := range src {
			start[byte(src[i].w[word]>>shift)]++
		}
		pos := 0
		for b := range start {
			pos, start[b] = pos+start[b], pos
		}
		for i := range src {
			b := byte(src[i].w[word] >> shift)
			dst[start[b]] = src[i]
			start[b]++
		}
		src, dst = dst, src
	}
	return src
}
