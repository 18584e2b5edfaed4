// Compiled key plan: one order and one hash per key type.
//
// The shuffle sorts, merges, range-searches and places keys; all four
// need a deterministic function of the key's *value*. A KeyPlan is that
// function, compiled once per type by the same reflection walk that
// builds the codec's fixed-width plan (appendScalarOps) and replayed
// with raw offset loads: Compare orders two keys field by field in
// declaration order, Hash folds the same fields into a seeded 64-bit
// hash. Neither formats, boxes, reflects or allocates.
package runfile

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// KeyPlan is the compiled order and hash of one key type; see
// KeyPlanFor. Its methods take the address of a value of that type.
type KeyPlan struct {
	ops []scalarOp
}

// keyPlans caches one plan per type; a stored nil records that the type
// was inspected and has no plan.
var keyPlans sync.Map // reflect.Type -> *KeyPlan

// KeyPlanFor returns K's compiled key plan, or nil when K has a part no
// plan can cover — an interface, pointer or channel — and the caller
// must fall back to something slower. Bools, integers, floats, complex
// numbers and strings are covered, through nested structs (unexported
// fields included, blank fields skipped, as == does) and arrays, named
// or not. The first call per type pays the reflection walk; later calls
// are one cache load.
func KeyPlanFor[K comparable]() *KeyPlan {
	return keyPlanOf(reflect.TypeOf((*K)(nil)).Elem())
}

func keyPlanOf(t reflect.Type) *KeyPlan {
	if p, ok := keyPlans.Load(t); ok {
		return p.(*KeyPlan)
	}
	var plan *KeyPlan
	if ops, ok := appendScalarOps(nil, t, 0, true); ok {
		plan = &KeyPlan{ops: ops}
	}
	keyPlans.Store(t, plan)
	return plan
}

// Compare orders the keys at a and b field-wise in declaration order:
// numerically for numbers, bytewise for strings, false before true.
// The result is zero exactly when the keys are ==, so the order is a
// strict total order on key values (NaNs aside: they sort first and
// compare equal to each other, though no NaN is == to anything).
func (p *KeyPlan) Compare(a, b unsafe.Pointer) int {
	for _, op := range p.ops {
		x, y := unsafe.Add(a, op.off), unsafe.Add(b, op.off)
		var c int
		switch op.kind {
		case reflect.Bool:
			c = int(*(*uint8)(x)) - int(*(*uint8)(y))
		case reflect.Int:
			c = cmp.Compare(*(*int)(x), *(*int)(y))
		case reflect.Int8:
			c = cmp.Compare(*(*int8)(x), *(*int8)(y))
		case reflect.Int16:
			c = cmp.Compare(*(*int16)(x), *(*int16)(y))
		case reflect.Int32:
			c = cmp.Compare(*(*int32)(x), *(*int32)(y))
		case reflect.Int64:
			c = cmp.Compare(*(*int64)(x), *(*int64)(y))
		case reflect.Uint:
			c = cmp.Compare(*(*uint)(x), *(*uint)(y))
		case reflect.Uint8:
			c = cmp.Compare(*(*uint8)(x), *(*uint8)(y))
		case reflect.Uint16:
			c = cmp.Compare(*(*uint16)(x), *(*uint16)(y))
		case reflect.Uint32:
			c = cmp.Compare(*(*uint32)(x), *(*uint32)(y))
		case reflect.Uint64:
			c = cmp.Compare(*(*uint64)(x), *(*uint64)(y))
		case reflect.Uintptr:
			c = cmp.Compare(*(*uintptr)(x), *(*uintptr)(y))
		case reflect.Float32:
			c = cmp.Compare(*(*float32)(x), *(*float32)(y))
		case reflect.Float64:
			c = cmp.Compare(*(*float64)(x), *(*float64)(y))
		case reflect.String:
			c = strings.Compare(*(*string)(x), *(*string)(y))
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Hash returns a seeded 64-bit hash of the key at k that depends only
// on the seed and the key's field values — never on padding, addresses
// or process state — so every process places a key identically, and
// keys that are == hash equal (+0.0 and -0.0 included).
func (p *KeyPlan) Hash(seed uint64, k unsafe.Pointer) uint64 {
	h := seed ^ hashInit
	for _, op := range p.ops {
		f := unsafe.Add(k, op.off)
		var v uint64
		switch op.kind {
		case reflect.Bool, reflect.Uint8:
			v = uint64(*(*uint8)(f))
		case reflect.Int:
			v = uint64(*(*int)(f))
		case reflect.Int8:
			v = uint64(*(*int8)(f))
		case reflect.Int16:
			v = uint64(*(*int16)(f))
		case reflect.Int32:
			v = uint64(*(*int32)(f))
		case reflect.Int64:
			v = uint64(*(*int64)(f))
		case reflect.Uint:
			v = uint64(*(*uint)(f))
		case reflect.Uint16:
			v = uint64(*(*uint16)(f))
		case reflect.Uint32:
			v = uint64(*(*uint32)(f))
		case reflect.Uint64:
			v = *(*uint64)(f)
		case reflect.Uintptr:
			v = uint64(*(*uintptr)(f))
		case reflect.Float32:
			// x + 0 folds -0.0 into +0.0 and leaves every other value alone.
			v = uint64(math.Float32bits(*(*float32)(f) + 0))
		case reflect.Float64:
			v = math.Float64bits(*(*float64)(f) + 0)
		case reflect.String:
			s := *(*string)(f)
			h = hashBytes(h, unsafe.Slice(unsafe.StringData(s), len(s)))
			continue
		}
		h = hashMix(h, v)
	}
	return hashMix(h, hashInit)
}

// HashBytes is the plan hash of a byte string — what Hash computes for a
// key that is a single string field — for callers that hash a key's
// codec bytes because its type has no plan.
func HashBytes(seed uint64, b []byte) uint64 {
	return hashMix(hashBytes(seed^hashInit, b), hashInit)
}

const (
	hashInit = 0x243f6a8885a308d3 // fractional bits of pi
	hashMul  = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// hashMix folds v into h with one 64x64→128 multiply whose halves are
// xored, so every input bit reaches the low bits partition masks use.
func hashMix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, hashMul)
	return hi ^ lo
}

// hashBytes folds a length-prefixed byte string into h, eight bytes per
// multiply.
func hashBytes(h uint64, b []byte) uint64 {
	h = hashMix(h, uint64(len(b)))
	for len(b) >= 8 {
		h = hashMix(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * i)
		}
		h = hashMix(h, tail)
	}
	return h
}
