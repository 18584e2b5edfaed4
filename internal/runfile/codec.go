// Typed encoding of Go keys and values onto run-file byte strings.
//
// The codec has a fast path for every kind the shuffle sorts natively
// (the integer kinds, floats, bools, strings and byte slices): fixed
// little-endian or raw-byte layouts with no per-item framing, since the
// run-file layer already length-prefixes each item. Fixed-width types
// that the switch does not name — structs of fixed-width exported
// fields, named scalar types — use a compiled per-type copy plan
// (fixed.go) with no per-value reflection. Every other type
// falls back to encoding/gob, one self-describing stream per item —
// more bytes, but spilled runs of struct keys (matrix cells, graph
// edges) round-trip without registration. Types gob cannot encode
// (for example structs with only unexported fields) surface an error,
// which the shuffle reports as a failed spill rather than silently
// corrupting a run.
package runfile

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// CanRoundTripIdentity reports whether values of type T preserve
// equality through Append/Decode. Two ways a type can fail: the gob
// fallback decodes pointers (and pointer-bearing struct fields,
// interfaces, channels) into fresh allocations, so two spilled
// occurrences of the same key would compare unequal after decode; and
// gob silently drops unexported struct fields, so keys differing only
// there would collapse into one. Callers that group decoded values by
// == — the shuffle's spill path gates its key type on this — must
// reject such types up front.
func CanRoundTripIdentity[T any]() error {
	t := reflect.TypeOf((*T)(nil)).Elem()
	return checkIdentity(t, t)
}

// CanRoundTripFidelity reports whether values of type T survive
// Append/Decode without silent data loss. Unlike identity, fidelity
// tolerates pointers, slices and maps (gob rebuilds them faithfully)
// and flags only the silent failure mode: unexported struct fields,
// which gob drops without error whenever the struct also has an
// exported field. Types gob rejects outright (channels, funcs,
// unregistered interfaces) are not flagged here — they fail loudly at
// encode time. The shuffle gates its value type on this before
// spilling.
func CanRoundTripFidelity[T any]() error {
	t := reflect.TypeOf((*T)(nil)).Elem()
	return checkFidelity(t, t, map[reflect.Type]bool{})
}

func checkFidelity(t, root reflect.Type, seen map[reflect.Type]bool) error {
	if seen[t] {
		return nil
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				return fmt.Errorf("runfile: unexported field %s.%s (in %v) is silently dropped by gob",
					t, f.Name, root)
			}
			if err := checkFidelity(f.Type, root, seen); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return checkFidelity(t.Elem(), root, seen)
	case reflect.Map:
		if err := checkFidelity(t.Key(), root, seen); err != nil {
			return err
		}
		return checkFidelity(t.Elem(), root, seen)
	default:
		return nil
	}
}

func checkIdentity(t, root reflect.Type) error {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128, reflect.String:
		return nil
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				return fmt.Errorf("runfile: unexported field %s.%s (in %v) is dropped by gob and breaks == across encode/decode",
					t, f.Name, root)
			}
			if err := checkIdentity(f.Type, root); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		return checkIdentity(t.Elem(), root)
	default:
		// Pointer, interface and channel (maps, slices and funcs are
		// not comparable, so they cannot reach here as key types).
		return fmt.Errorf("runfile: type %v (in %v) does not preserve == across encode/decode", t, root)
	}
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
		if plan := fixedPlanFor[T](); plan != nil {
			// Fixed-width fast path: replay the type's compiled plan —
			// no reflection per value, no gob type descriptors.
			return plan.appendTo(dst, fixedPtr(&v)), nil
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("runfile: cannot encode %T: %w", v, err)
		}
		return append(dst, buf.Bytes()...), nil
	}
}

// Codec is T's Append and Decode resolved once. For a fixed-width type
// outside their typed switch, Append and Decode look T's compiled plan
// up (reflection and a cache load) on every call; a Codec binds the
// plan when it is made, so a caller coding many values pays the lookup
// once. Its bytes are Append's exactly.
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
	plan := fixedPlanFor[T]()
	if plan == nil {
		return Codec[T]{Append[T], Decode[T]} // gob, whose own cost dwarfs the lookup
	}
	return Codec[T]{
		Append: func(dst []byte, v T) ([]byte, error) { return plan.appendTo(dst, fixedPtr(&v)), nil },
		Decode: func(data []byte) (T, error) {
			var out T
			err := plan.decodeInto(data, fixedPtr(&out))
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
		if plan := fixedPlanFor[T](); plan != nil {
			if err := plan.decodeInto(data, fixedPtr(&out)); err != nil {
				return out, err
			}
			return out, nil
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
			return out, fmt.Errorf("runfile: cannot decode %T: %w", out, err)
		}
		return out, nil
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
