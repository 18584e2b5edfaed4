// Compiled key plan: one order and one hash per key type.
//
// The shuffle sorts, merges, range-searches and places keys; all four
// need a deterministic function of the key's *value*. A KeyPlan is that
// function, compiled once per type by the same reflection walk that
// builds the codec's fixed-width plan (appendScalarOps) and replayed
// with raw offset loads: Compare orders two keys field by field in
// declaration order, Hash folds the same fields into a seeded 64-bit
// hash, and Norm maps a key of at most two number or bool parts onto
// two words whose lexicographic order is Compare's. None of them
// formats, boxes, reflects or allocates.
package runfile

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"slices"
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
// strict total order on key values that are == to themselves. A key
// with a NaN in it is not, and is not a key: the shuffle refuses it at
// emit (HasFloat tells it which types to check). Compare loads each part
// once per side with its own type, independently of Norm, so the two
// check each other (TestKeyNormOrder, FuzzKeyNorm).
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

// Normalized reports whether the key has a normalized form (Norm): at
// most two parts, each a number or a bool — an int, a float64, a
// complex64, a two-field struct of numbers, a [2]int32. A key with a
// string part, or with more than two parts, has none.
func (p *KeyPlan) Normalized() bool {
	return len(p.ops) <= 2 && !slices.ContainsFunc(p.ops, func(op scalarOp) bool { return op.kind == reflect.String })
}

// Norm returns the normalized form of the key at k, which must have one
// (Normalized): one unsigned word per part in declaration order, the
// second zero for a one-part key, such that comparing two keys' words
// lexicographically gives exactly Compare's result. Signed integers are
// widened and sign-flipped, floats IEEE-flipped with -0 folded into +0,
// bools 0 or 1. It neither allocates nor branches on more than the
// part's kind, so a sort or merge can compare words inline.
func (p *KeyPlan) Norm(k unsafe.Pointer) (w0, w1 uint64) {
	switch len(p.ops) {
	case 2:
		w1 = normWord(p.ops[1], k)
		fallthrough
	case 1:
		w0 = normWord(p.ops[0], k)
	}
	return w0, w1
}

const signBit = 1 << 63

// normWord maps the number or bool op addresses in the value at k onto a
// uint64 in the same order.
func normWord(op scalarOp, k unsafe.Pointer) uint64 {
	f := unsafe.Add(k, op.off)
	switch op.kind {
	case reflect.Bool, reflect.Uint8:
		return uint64(*(*uint8)(f))
	case reflect.Int:
		return uint64(*(*int)(f)) ^ signBit
	case reflect.Int8:
		return uint64(*(*int8)(f)) ^ signBit
	case reflect.Int16:
		return uint64(*(*int16)(f)) ^ signBit
	case reflect.Int32:
		return uint64(*(*int32)(f)) ^ signBit
	case reflect.Int64:
		return uint64(*(*int64)(f)) ^ signBit
	case reflect.Uint:
		return uint64(*(*uint)(f))
	case reflect.Uint16:
		return uint64(*(*uint16)(f))
	case reflect.Uint32:
		return uint64(*(*uint32)(f))
	case reflect.Uint64:
		return *(*uint64)(f)
	case reflect.Uintptr:
		return uint64(*(*uintptr)(f))
	case reflect.Float32:
		return floatWord(float64(*(*float32)(f)))
	case reflect.Float64:
		return floatWord(*(*float64)(f))
	}
	return 0
}

// floatWord is the IEEE flip: x + 0 folds -0 into +0, then a negative
// float's bits are all inverted (a larger magnitude sorts lower) and a
// positive float's sign bit is set (it sorts above every negative).
func floatWord(x float64) uint64 {
	b := math.Float64bits(x + 0)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// HasFloat reports whether the key has a float or complex part — the
// only parts whose values (NaN) can fail to be == to themselves.
func (p *KeyPlan) HasFloat() bool {
	return slices.ContainsFunc(p.ops, func(op scalarOp) bool { return op.kind == reflect.Float32 || op.kind == reflect.Float64 })
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
		case reflect.Float32:
			// x + 0 folds -0.0 into +0.0 and leaves every other value alone.
			v = uint64(math.Float32bits(*(*float32)(f) + 0))
		case reflect.Float64:
			v = math.Float64bits(*(*float64)(f) + 0)
		case reflect.String:
			s := *(*string)(f)
			h = hashBytes(h, unsafe.Slice(unsafe.StringData(s), len(s)))
			continue
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
		}
		h = hashMix(h, v)
	}
	return hashMix(h, hashInit)
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
