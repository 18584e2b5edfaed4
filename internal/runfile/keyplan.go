// Compiled plan: one per type, behind its order, hash and codec.
//
// The shuffle sorts, merges, range-searches and places keys, and the
// run-file codec writes keys and values to disk; all of it needs a
// deterministic function of the value. A Plan is the type flattened
// once, by one reflection walk (appendScalarOps), into its scalar parts
// in declaration order, and every use replays it with raw offset loads:
// Compare orders two keys field by field, Hash folds the same fields
// into a seeded 64-bit hash, Norm maps a key of at most two number or
// bool parts onto two words whose lexicographic order is Compare's, and
// the codec (fixed.go) copies the parts to and from their wire form.
// None of them formats, boxes, reflects or allocates (a decoded string
// aside).
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

// scalarOp addresses one scalar of a composite value: the field at
// offset off from the value's base address, of the given kind.
type scalarOp struct {
	off  uintptr
	kind reflect.Kind
}

// Plan is the compiled form of one type; see PlanFor. Its methods take
// the address of a value of that type.
type Plan struct {
	ops []scalarOp
	// size is a value's wire length in bytes (fixed.go), or -1 when a
	// string part makes it vary.
	size int
	// image is the type's ImageSize.
	image int
}

// plans caches one plan per type; a stored nil records that the type
// was inspected and has no plan.
var plans sync.Map // reflect.Type -> *Plan

// PlanFor returns T's compiled plan, or nil when T has a part no plan
// can cover: an interface, pointer, channel, func, map or slice. Bools,
// integers, floats, complex numbers and strings are covered, through
// nested structs (unexported fields included, blank fields skipped, as
// == does) and arrays, named or not. The first call per type pays the
// reflection walk; later calls are one cache load.
func PlanFor[T any]() *Plan {
	return planOf(reflect.TypeFor[T]())
}

func planOf(t reflect.Type) *Plan {
	if p, ok := plans.Load(t); ok {
		return p.(*Plan)
	}
	var plan *Plan
	if ops, blank, ok := appendScalarOps(nil, t, 0); ok {
		plan = &Plan{ops: ops}
		image := !blank && t.Size() > 0
		for _, op := range ops {
			image = image && op.kind != reflect.Bool && op.kind != reflect.String
			if op.kind == reflect.String || plan.size < 0 {
				plan.size = -1
			} else {
				plan.size += scalarWidth(op.kind)
			}
		}
		if image {
			plan.image = int(t.Size())
		}
	}
	plans.Store(t, plan)
	return plan
}

// appendScalarOps is the one reflection walk behind every plan: it
// flattens t, laid out at offset base, into scalar ops in declaration
// order — through nested structs and arrays, by kind (so named scalars
// qualify), with a complex number as its real and imaginary floats —
// and reports false when t has a part it cannot cover. Blank fields are
// skipped, as == skips them (blank reports that one was); padding is
// never addressed, since only declared fields produce ops.
func appendScalarOps(ops []scalarOp, t reflect.Type, base uintptr) (_ []scalarOp, blank, ok bool) {
	switch k := t.Kind(); k {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return append(ops, scalarOp{base, k}), false, true
	case reflect.Complex64:
		return append(ops, scalarOp{base, reflect.Float32}, scalarOp{base + 4, reflect.Float32}), false, true
	case reflect.Complex128:
		return append(ops, scalarOp{base, reflect.Float64}, scalarOp{base + 8, reflect.Float64}), false, true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Name == "_" {
				blank = true
				continue
			}
			var b bool
			if ops, b, ok = appendScalarOps(ops, f.Type, base+f.Offset); !ok {
				return ops, blank, false
			}
			blank = blank || b
		}
		return ops, blank, true
	case reflect.Array:
		elem := t.Elem()
		for i := 0; i < t.Len(); i++ {
			var b bool
			if ops, b, ok = appendScalarOps(ops, elem, base+uintptr(i)*elem.Size()); !ok {
				return ops, blank, false
			}
			blank = blank || b
		}
		return ops, blank, true
	default:
		return ops, false, false
	}
}

// Compare orders the keys at a and b field-wise in declaration order:
// numerically for numbers, bytewise for strings, false before true.
// The result is zero exactly when the keys are ==, so the order is a
// strict total order on key values that are == to themselves. A key
// with a NaN in it is not, and is not a key: the shuffle refuses it at
// emit (HasFloat tells it which types to check). Compare loads each part
// once per side with its own type, independently of Norm, so the two
// check each other (TestKeyNormOrder, FuzzKeyNorm).
func (p *Plan) Compare(a, b unsafe.Pointer) int {
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
func (p *Plan) Normalized() bool {
	return len(p.ops) <= 2 && p.size >= 0
}

// Norm returns the normalized form of the key at k, which must have one
// (Normalized): one unsigned word per part in declaration order, the
// second zero for a one-part key, such that comparing two keys' words
// lexicographically gives exactly Compare's result. Signed integers are
// widened and sign-flipped, floats IEEE-flipped with -0 folded into +0,
// bools 0 or 1. It neither allocates nor branches on more than the
// part's kind, so a sort or merge can compare words inline.
func (p *Plan) Norm(k unsafe.Pointer) (w0, w1 uint64) {
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
func (p *Plan) HasFloat() bool {
	return slices.ContainsFunc(p.ops, func(op scalarOp) bool { return op.kind == reflect.Float32 || op.kind == reflect.Float64 })
}

// Hash returns a seeded 64-bit hash of the key at k that depends only
// on the seed and the key's field values — never on padding, addresses
// or process state — so every process places a key identically, and
// keys that are == hash equal (+0.0 and -0.0 included).
func (p *Plan) Hash(seed uint64, k unsafe.Pointer) uint64 {
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
