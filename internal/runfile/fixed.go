// Fixed-width fast path of the typed codec.
//
// The gob fallback in codec.go is self-describing and general, but it
// pays full reflection — and re-sends the type description — for every
// single value, which dominates reduce-side CPU for struct keys and
// values (matrix cells, graph edges). Many of those types are *fixed
// width*: every field is a bool, sized integer, float or complex (or a
// nested struct/array of those), so the value has one canonical
// little-endian layout of a statically known size. For such types the
// codec builds a plan once per type — a flat list of (memory offset,
// kind) copy operations derived from reflection — and every subsequent
// encode or decode replays the plan with raw pointer loads and stores:
// no per-value reflection, no type descriptors on the wire, and a
// fraction of gob's bytes.
//
// The plan covers exactly the types whose round-trip identity the
// shuffle already requires (CanRoundTripIdentity): exported fixed-width
// fields only. Anything else — strings, slices, maps, pointers,
// unexported fields, non-64-bit ints on exotic platforms — falls back
// to gob as before.
package runfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// maxFixedOps caps a codec plan's flattened operation count so a huge
// array field cannot produce an absurd plan; such types fall back to gob.
const maxFixedOps = 256

// scalarOp addresses one scalar of a composite value: the field at
// offset off from the value's base address, of the given kind. The
// codec copies it to and from its canonical little-endian wire form; the
// key plan (keyplan.go) compares and hashes it in place.
type scalarOp struct {
	off  uintptr
	kind reflect.Kind
}

// fixedPlan is the compiled codec of one fixed-width type: size is the
// wire length in bytes, ops the field copies in declaration order.
type fixedPlan struct {
	size int
	ops  []scalarOp
}

// fixedPlans caches one plan per type; a stored nil records that the
// type was inspected and does not qualify.
var fixedPlans sync.Map // reflect.Type -> *fixedPlan

// fixedPtr is unsafe.Pointer(&v) for callers that do not otherwise
// deal in unsafe (the batch decoder).
func fixedPtr[T any](v *T) unsafe.Pointer { return unsafe.Pointer(v) }

// fixedPlanFor returns T's compiled fixed-width plan, or nil when T
// must use the gob fallback. The first call per type pays the
// reflection walk; later calls are one cache load.
func fixedPlanFor[T any]() *fixedPlan {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if p, ok := fixedPlans.Load(t); ok {
		return p.(*fixedPlan)
	}
	plan := buildFixedPlan(t)
	fixedPlans.Store(t, plan)
	return plan
}

// buildFixedPlan compiles t's plan, or returns nil when t has any
// non-fixed-width part. Types already handled by the typed switch in
// codec.go (unnamed ints, floats, bool, string, []byte) never reach
// the plan at encode time, but compiling them is harmless and lets
// named scalar types (`type NodeID int64`) share the fast path.
func buildFixedPlan(t reflect.Type) *fixedPlan {
	ops, ok := appendScalarOps(nil, t, 0, false)
	if !ok || len(ops) == 0 {
		return nil
	}
	p := &fixedPlan{ops: ops}
	for _, op := range ops {
		p.size += int(scalarWidth(op.kind))
	}
	return p
}

// scalarWidth is a scalar kind's wire (and, on 64-bit platforms,
// memory) width in bytes.
func scalarWidth(k reflect.Kind) uintptr {
	switch k {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	default:
		return 8
	}
}

// appendScalarOps is the one reflection walk behind both compiled
// plans: it flattens t, laid out at offset base, into scalar ops in
// declaration order — through nested structs and arrays, by kind (so
// named scalars qualify), with a complex number as its real and
// imaginary floats — and reports false when t has a part it cannot
// cover. Padding is never addressed: only declared fields produce ops.
//
// The codec walk (key false) admits exactly the fixed-width types whose
// round-trip identity the shuffle requires: no strings, no unexported
// fields (they keep the gob fallback and its loud rejection through the
// round-trip gates rather than silently diverging from it), 64-bit
// words only (Int/Uint/Uintptr travel as 8 wire bytes and the pointer
// load must be exact), at most maxFixedOps ops. The key walk (key true)
// reads values in place, so it also takes strings, unexported fields
// and any word size, and skips blank fields, which == ignores.
func appendScalarOps(ops []scalarOp, t reflect.Type, base uintptr, key bool) ([]scalarOp, bool) {
	if !key && len(ops) >= maxFixedOps {
		return ops, false
	}
	switch k := t.Kind(); k {
	case reflect.Bool,
		reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return append(ops, scalarOp{base, k}), true
	case reflect.Int, reflect.Uint, reflect.Uintptr:
		return append(ops, scalarOp{base, k}), key || bits.UintSize == 64
	case reflect.String:
		return append(ops, scalarOp{base, k}), key
	case reflect.Complex64:
		return append(ops, scalarOp{base, reflect.Float32}, scalarOp{base + 4, reflect.Float32}), true
	case reflect.Complex128:
		return append(ops, scalarOp{base, reflect.Float64}, scalarOp{base + 8, reflect.Float64}), true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if key && f.Name == "_" {
				continue
			}
			if !key && f.PkgPath != "" {
				return ops, false
			}
			var ok bool
			if ops, ok = appendScalarOps(ops, f.Type, base+f.Offset, key); !ok {
				return ops, false
			}
		}
		return ops, true
	case reflect.Array:
		elem := t.Elem()
		for i := 0; i < t.Len(); i++ {
			var ok bool
			if ops, ok = appendScalarOps(ops, elem, base+uintptr(i)*elem.Size(), key); !ok {
				return ops, false
			}
		}
		return ops, true
	default:
		return ops, false
	}
}

// ImageSize reports T's memory size when every bit pattern of that many
// bytes is a valid T — T is made only of integers, floats and complex
// numbers, through arrays and structs of exported fields that the codec
// plan covers (appendScalarOps) — so a []T can be stored as its memory
// (ImageBytes) and read back by copying bytes into a []T. It reports 0
// for any other T: bools (only 0 and 1 are valid), pointers, strings and
// other references, and size zero. An image is this process's layout,
// padding included, for this process to read back.
func ImageSize[T any]() int {
	t := reflect.TypeOf((*T)(nil)).Elem()
	ops, ok := appendScalarOps(nil, t, 0, false)
	for _, op := range ops {
		ok = ok && op.kind != reflect.Bool
	}
	if !ok {
		return 0
	}
	return int(t.Size())
}

// ImageBytes views s's elements as their memory image, without a copy.
// T must have a nonzero ImageSize.
func ImageBytes[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// appendTo encodes the value at src (the address of a value of the
// plan's type) onto dst in canonical little-endian form.
func (p *fixedPlan) appendTo(dst []byte, src unsafe.Pointer) []byte {
	for _, op := range p.ops {
		f := unsafe.Add(src, op.off)
		switch op.kind {
		case reflect.Bool:
			b := byte(0)
			if *(*bool)(f) {
				b = 1
			}
			dst = append(dst, b)
		case reflect.Int8:
			dst = append(dst, byte(*(*int8)(f)))
		case reflect.Uint8:
			dst = append(dst, *(*uint8)(f))
		case reflect.Int16:
			dst = binary.LittleEndian.AppendUint16(dst, uint16(*(*int16)(f)))
		case reflect.Uint16:
			dst = binary.LittleEndian.AppendUint16(dst, *(*uint16)(f))
		case reflect.Int32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(*(*int32)(f)))
		case reflect.Uint32:
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(f))
		case reflect.Float32:
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(*(*float32)(f)))
		case reflect.Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*int64)(f)))
		case reflect.Uint64:
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(f))
		case reflect.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(*(*float64)(f)))
		case reflect.Int:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*int)(f)))
		case reflect.Uint:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*uint)(f)))
		case reflect.Uintptr:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*uintptr)(f)))
		}
	}
	return dst
}

// decodeInto decodes data (exactly p.size wire bytes) into the value at
// dst.
func (p *fixedPlan) decodeInto(data []byte, dst unsafe.Pointer) error {
	if len(data) != p.size {
		return fmt.Errorf("runfile: fixed-width value needs %d bytes, got %d", p.size, len(data))
	}
	pos := 0
	for _, op := range p.ops {
		f := unsafe.Add(dst, op.off)
		switch op.kind {
		case reflect.Bool:
			*(*bool)(f) = data[pos] != 0
			pos++
		case reflect.Int8:
			*(*int8)(f) = int8(data[pos])
			pos++
		case reflect.Uint8:
			*(*uint8)(f) = data[pos]
			pos++
		case reflect.Int16:
			*(*int16)(f) = int16(binary.LittleEndian.Uint16(data[pos:]))
			pos += 2
		case reflect.Uint16:
			*(*uint16)(f) = binary.LittleEndian.Uint16(data[pos:])
			pos += 2
		case reflect.Int32:
			*(*int32)(f) = int32(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		case reflect.Uint32:
			*(*uint32)(f) = binary.LittleEndian.Uint32(data[pos:])
			pos += 4
		case reflect.Float32:
			*(*float32)(f) = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		case reflect.Int64:
			*(*int64)(f) = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case reflect.Uint64:
			*(*uint64)(f) = binary.LittleEndian.Uint64(data[pos:])
			pos += 8
		case reflect.Float64:
			*(*float64)(f) = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case reflect.Int:
			*(*int)(f) = int(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case reflect.Uint:
			*(*uint)(f) = uint(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case reflect.Uintptr:
			*(*uintptr)(f) = uintptr(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	}
	return nil
}
