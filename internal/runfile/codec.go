// Typed encoding of Go keys and values onto run-file byte strings.
//
// CodecFor is the one place a type's wire form is chosen. Every unnamed
// kind the shuffle sorts natively (the integer kinds, floats, bools,
// strings and byte slices) takes a varint, fixed little-endian or
// raw-byte layout with no per-item framing, since the run-file layer
// already length-prefixes each item. Every other type is coded by
// replaying its compiled plan (keyplan.go, fixed.go) — bools, numbers
// and strings, through structs (unexported fields included) and arrays,
// named or not, so a named int is 8 little-endian bytes where an int is
// a varint. Those and a bare []byte are the types with a codec;
// CheckCodec names any other type (a pointer, interface, channel, map
// or slice in it) so callers refuse it before any task runs, and its
// codec fails on every value. testdata/codec.golden pins the bytes.
//
// Where a plan's wire form is byte for byte its memory image (wireImage:
// no bool or string part, every part at its wire offset, the wire size
// the memory size, a little-endian host), its codec copies that image:
// Append appends the value's bytes, Decode checks the length and copies
// them back, and DecodeSection copies a section of n canonical one-byte
// frames without a walk. The bytes are the plan's either way.
package runfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// CheckCodec reports whether T has a codec, with an error naming the
// type when it has none: CodecFor's verdict, read off its Append of
// T's zero value.
func CheckCodec[T any]() error {
	_, err := CodecFor[T]().Append(nil, *new(T))
	return err
}

// Append encodes v and appends its byte representation to dst.
func Append[T any](dst []byte, v T) ([]byte, error) { return CodecFor[T]().Append(dst, v) }

// Decode reconstructs a value of type T from bytes produced by Append.
func Decode[T any](data []byte) (T, error) { return CodecFor[T]().Decode(data) }

// Codec is T's wire form: Append encodes one value onto dst, Decode
// reads exactly one value's bytes back (a string or []byte is copied out
// of them), and DecodeSection reads a framed value section. CodecFor
// resolves it once, so a caller coding many values pays the choice once.
type Codec[T any] struct {
	Append func(dst []byte, v T) ([]byte, error)
	Decode func(data []byte) (T, error)
	// image is T's size when its wire form is its memory image, else 0.
	image int
}

// planCodecs caches the Codec of every type CodecFor codes by its plan
// (or refuses), so resolving one binds no closures after the first.
var planCodecs sync.Map // reflect.Type -> Codec of that type

// CodecFor resolves T's Codec: a specialised pair for each unnamed
// scalar kind, matched on the exact type, and the compiled plan's
// replay for any other type that has one.
func CodecFor[T any]() Codec[T] {
	switch any((*T)(nil)).(type) {
	case *int:
		return scalar[T](appendSigned[int], decodeSigned[int])
	case *int8:
		return scalar[T](appendSigned[int8], decodeSigned[int8])
	case *int16:
		return scalar[T](appendSigned[int16], decodeSigned[int16])
	case *int32:
		return scalar[T](appendSigned[int32], decodeSigned[int32])
	case *int64:
		return scalar[T](appendSigned[int64], decodeSigned[int64])
	case *uint:
		return scalar[T](appendUnsigned[uint], decodeUnsigned[uint])
	case *uint8:
		return scalar[T](appendUnsigned[uint8], decodeUnsigned[uint8])
	case *uint16:
		return scalar[T](appendUnsigned[uint16], decodeUnsigned[uint16])
	case *uint32:
		return scalar[T](appendUnsigned[uint32], decodeUnsigned[uint32])
	case *uint64:
		return scalar[T](appendUnsigned[uint64], decodeUnsigned[uint64])
	case *uintptr:
		return scalar[T](appendUnsigned[uintptr], decodeUnsigned[uintptr])
	case *float32:
		return scalar[T](appendFloat32, decodeFloat32)
	case *float64:
		return scalar[T](appendFloat64, decodeFloat64)
	case *bool:
		return scalar[T](appendBool, decodeBool)
	case *string:
		return scalar[T](appendString, decodeString)
	case *[]byte:
		return scalar[T](appendBytes, decodeBytes)
	}
	t := reflect.TypeFor[T]()
	if c, ok := planCodecs.Load(t); ok {
		return c.(Codec[T])
	}
	c := planCodec[T](t)
	planCodecs.Store(t, c)
	return c
}

// scalar retypes the codec of the scalar kind U as T's; CodecFor's
// switch has matched T to U exactly.
func scalar[T, U any](enc func([]byte, U) ([]byte, error), dec func([]byte) (U, error)) Codec[T] {
	return Codec[T]{Append: any(enc).(func([]byte, T) ([]byte, error)), Decode: any(dec).(func([]byte) (T, error))}
}

// planCodec binds T's compiled plan, or, for a T with none, a codec
// whose every call fails naming T.
func planCodec[T any](t reflect.Type) Codec[T] {
	plan := planOf(t)
	if plan == nil {
		err := fmt.Errorf("runfile: type %v has no codec: values must be made of bools, numbers and strings, through structs and arrays, or be a bare []byte", t)
		return Codec[T]{
			Append: func([]byte, T) ([]byte, error) { return nil, err },
			Decode: func([]byte) (T, error) { return *new(T), err },
		}
	}
	if w := plan.wireImage(); w > 0 {
		return Codec[T]{
			Append: func(dst []byte, v T) ([]byte, error) {
				return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v)), w)...), nil
			},
			Decode: func(data []byte) (T, error) {
				var out T
				if len(data) != w {
					return out, fmt.Errorf("runfile: fixed-width value needs %d bytes, got %d", w, len(data))
				}
				copy(unsafe.Slice((*byte)(unsafe.Pointer(&out)), w), data)
				return out, nil
			},
			image: w,
		}
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

// DecodeSection decodes the framed value section sec — n values, each
// its uvarint length and then its bytes — onto dst in one walk. Each
// length must stay inside sec and the n frames must use sec up exactly;
// a framing fault wraps ErrCorrupt, a payload the codec rejects returns
// the codec's error. The decoded values own their bytes. A wire-image
// codec copies a section of exactly n frames, each the canonical
// one-byte length and an image, without the walk; any other section
// takes the walk and its verdict.
func (c Codec[T]) DecodeSection(sec []byte, n int, dst []T) ([]T, error) {
	if out, ok := c.copySection(sec, n, dst); ok {
		return out, nil
	}
	pos := 0
	for i := 0; i < n; i++ {
		start, end, err := nextFrame(sec, pos)
		if err != nil {
			return dst, err
		}
		v, err := c.Decode(sec[start:end])
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		pos = end
	}
	return dst, sectionEnd(sec, pos)
}

// copySection appends the n images of sec onto dst when sec is exactly
// n frames of the canonical one-byte length w and a w-byte image, and
// reports whether it was.
func (c Codec[T]) copySection(sec []byte, n int, dst []T) ([]T, bool) {
	w := c.image
	if w == 0 || w >= 0x80 || len(sec) != n*(w+1) {
		return dst, false
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	img := ImageBytes(dst[base:])
	for i := 0; i < n; i++ {
		f := sec[i*(w+1):]
		if f[0] != byte(w) {
			return dst[:base], false
		}
		copy(img[i*w:(i+1)*w], f[1:w+1])
	}
	return dst, true
}

// appendSigned and the pairs below it are the scalar kinds' wire forms:
// a varint for the integers, the IEEE bits little-endian for the floats,
// one byte 0 or 1 for a bool and the bytes themselves for a string or a
// []byte.
func appendSigned[U int | int8 | int16 | int32 | int64](dst []byte, v U) ([]byte, error) {
	return binary.AppendVarint(dst, int64(v)), nil
}

func decodeSigned[U int | int8 | int16 | int32 | int64](data []byte) (U, error) {
	x, n := binary.Varint(data)
	if n <= 0 || n != len(data) {
		return 0, fmt.Errorf("runfile: invalid varint")
	}
	return U(x), nil
}

func appendUnsigned[U uint | uint8 | uint16 | uint32 | uint64 | uintptr](dst []byte, v U) ([]byte, error) {
	return binary.AppendUvarint(dst, uint64(v)), nil
}

func decodeUnsigned[U uint | uint8 | uint16 | uint32 | uint64 | uintptr](data []byte) (U, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return 0, fmt.Errorf("runfile: invalid uvarint")
	}
	return U(x), nil
}

func appendFloat32(dst []byte, v float32) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v)), nil
}

func decodeFloat32(data []byte) (float32, error) {
	if len(data) != 4 {
		return 0, fmt.Errorf("runfile: float32 needs 4 bytes, got %d", len(data))
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(data)), nil
}

func appendFloat64(dst []byte, v float64) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)), nil
}

func decodeFloat64(data []byte) (float64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("runfile: float64 needs 8 bytes, got %d", len(data))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}

func appendBool(dst []byte, v bool) ([]byte, error) {
	if v {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

// decodeBool accepts only the bytes appendBool writes, as a plan's bool
// part does (fixed.go).
func decodeBool(data []byte) (bool, error) {
	if len(data) != 1 || data[0] > 1 {
		return false, fmt.Errorf("runfile: bool needs one byte 0 or 1, got % x", data)
	}
	return data[0] == 1, nil
}

func appendString(dst []byte, v string) ([]byte, error) { return append(dst, v...), nil }

func decodeString(data []byte) (string, error) { return string(data), nil }

func appendBytes(dst []byte, v []byte) ([]byte, error) { return append(dst, v...), nil }

func decodeBytes(data []byte) ([]byte, error) { return append([]byte(nil), data...), nil }
