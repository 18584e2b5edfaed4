// Typed encoding of Go keys and values onto run-file byte strings.
//
// The codec has a fast path for every kind the shuffle sorts natively
// (the unnamed integer kinds, floats, bools, strings and byte slices):
// varint, fixed little-endian or raw-byte layouts with no per-item
// framing, since the run-file layer already length-prefixes each item.
// Every other type is coded by replaying its compiled plan (keyplan.go,
// fixed.go) — bools, numbers and strings, through structs (unexported
// fields included) and arrays, named or not. Those and a bare []byte
// are the types with a codec; CheckCodec names any other type (a
// pointer, interface, channel, map or slice in it) so callers refuse it
// before any task runs, and Append and Decode fail on it.
package runfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// CheckCodec reports whether T has a codec, with an error naming the
// type when it has none.
func CheckCodec[T any]() error {
	if _, ok := any((*T)(nil)).(*[]byte); ok || PlanFor[T]() != nil {
		return nil
	}
	return errNoCodec(reflect.TypeFor[T]())
}

func errNoCodec(t reflect.Type) error {
	return fmt.Errorf("runfile: type %v has no codec: values must be made of bools, numbers and strings, through structs and arrays, or be a bare []byte", t)
}

// Append encodes v and appends its byte representation to dst.
func Append[T any](dst []byte, v T) ([]byte, error) {
	switch x := any(v).(type) {
	case int:
		return binary.AppendVarint(dst, int64(x)), nil
	case int8:
		return binary.AppendVarint(dst, int64(x)), nil
	case int16:
		return binary.AppendVarint(dst, int64(x)), nil
	case int32:
		return binary.AppendVarint(dst, int64(x)), nil
	case int64:
		return binary.AppendVarint(dst, x), nil
	case uint:
		return binary.AppendUvarint(dst, uint64(x)), nil
	case uint8:
		return binary.AppendUvarint(dst, uint64(x)), nil
	case uint16:
		return binary.AppendUvarint(dst, uint64(x)), nil
	case uint32:
		return binary.AppendUvarint(dst, uint64(x)), nil
	case uint64:
		return binary.AppendUvarint(dst, x), nil
	case uintptr:
		return binary.AppendUvarint(dst, uint64(x)), nil
	case float32:
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case bool:
		if x {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case string:
		return append(dst, x...), nil
	case []byte:
		return append(dst, x...), nil
	default:
		if plan := PlanFor[T](); plan != nil {
			return plan.appendTo(dst, unsafe.Pointer(&v)), nil
		}
		return nil, errNoCodec(reflect.TypeFor[T]())
	}
}

// Codec is T's Append and Decode resolved once. For a type outside
// their typed switch, Append and Decode look T's compiled plan up
// (reflection and a cache load) on every call; a Codec binds the plan
// when it is made, so a caller coding many values pays the lookup once.
// Its bytes are Append's exactly.
type Codec[T any] struct {
	Append func(dst []byte, v T) ([]byte, error)
	Decode func(data []byte) (T, error)
}

// CodecFor resolves T's Codec.
func CodecFor[T any]() Codec[T] {
	switch any((*T)(nil)).(type) {
	case *int, *int8, *int16, *int32, *int64, *uint, *uint8, *uint16, *uint32, *uint64, *uintptr,
		*float32, *float64, *bool, *string, *[]byte:
		return Codec[T]{Append[T], Decode[T]} // the typed switch
	}
	plan := PlanFor[T]()
	if plan == nil {
		return Codec[T]{Append[T], Decode[T]} // both fail: T has no codec
	}
	return Codec[T]{
		Append: func(dst []byte, v T) ([]byte, error) { return plan.appendTo(dst, unsafe.Pointer(&v)), nil },
		Decode: func(data []byte) (T, error) {
			var out T
			err := plan.decodeInto(data, unsafe.Pointer(&out))
			return out, err
		},
	}
}

// Decode reconstructs a value of type T from bytes produced by Append.
// Its typed switch is mirrored by DecodeBatch in batch.go (one
// dispatch per batch instead of per value); layout changes must land
// in both — TestDecodeBatchKinds pins their agreement.
func Decode[T any](data []byte) (T, error) {
	// The fast paths dispatch on (*T)(nil) and build their result in a
	// case-local value reinterpreted by castTo: a type switch on
	// any(&out) would force out — and so every decoded key and value on
	// the merge and swap-readback paths — through the heap.
	switch any((*T)(nil)).(type) {
	case *int:
		x, err := decodeVarint(data)
		return castTo[T](int(x)), err
	case *int8:
		x, err := decodeVarint(data)
		return castTo[T](int8(x)), err
	case *int16:
		x, err := decodeVarint(data)
		return castTo[T](int16(x)), err
	case *int32:
		x, err := decodeVarint(data)
		return castTo[T](int32(x)), err
	case *int64:
		x, err := decodeVarint(data)
		return castTo[T](x), err
	case *uint:
		x, err := decodeUvarint(data)
		return castTo[T](uint(x)), err
	case *uint8:
		x, err := decodeUvarint(data)
		return castTo[T](uint8(x)), err
	case *uint16:
		x, err := decodeUvarint(data)
		return castTo[T](uint16(x)), err
	case *uint32:
		x, err := decodeUvarint(data)
		return castTo[T](uint32(x)), err
	case *uint64:
		x, err := decodeUvarint(data)
		return castTo[T](x), err
	case *uintptr:
		x, err := decodeUvarint(data)
		return castTo[T](uintptr(x)), err
	case *float32:
		if len(data) != 4 {
			var out T
			return out, fmt.Errorf("runfile: float32 needs 4 bytes, got %d", len(data))
		}
		return castTo[T](math.Float32frombits(binary.LittleEndian.Uint32(data))), nil
	case *float64:
		if len(data) != 8 {
			var out T
			return out, fmt.Errorf("runfile: float64 needs 8 bytes, got %d", len(data))
		}
		return castTo[T](math.Float64frombits(binary.LittleEndian.Uint64(data))), nil
	case *bool:
		if len(data) != 1 {
			var out T
			return out, fmt.Errorf("runfile: bool needs 1 byte, got %d", len(data))
		}
		return castTo[T](data[0] != 0), nil
	case *string:
		return castTo[T](string(data)), nil
	case *[]byte:
		return castTo[T](append([]byte(nil), data...)), nil
	default:
		var out T
		plan := PlanFor[T]()
		if plan == nil {
			return out, errNoCodec(reflect.TypeFor[T]())
		}
		err := plan.decodeInto(data, unsafe.Pointer(&out))
		return out, err
	}
}

// castTo reinterprets a fast-path case's concrete value as T. Sound
// only when U is exactly T (each switch case guarantees it); the copy
// through unsafe keeps the value out of the heap.
func castTo[T, U any](u U) T { return *(*T)(unsafe.Pointer(&u)) }

func decodeVarint(data []byte) (int64, error) {
	x, n := binary.Varint(data)
	if n <= 0 || n != len(data) {
		return 0, fmt.Errorf("runfile: invalid varint")
	}
	return x, nil
}

func decodeUvarint(data []byte) (uint64, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return 0, fmt.Errorf("runfile: invalid uvarint")
	}
	return x, nil
}
