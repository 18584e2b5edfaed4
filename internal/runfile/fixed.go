// The codec's replay of a type's compiled plan (keyplan.go).
//
// Every type with a plan that CodecFor does not match to an unnamed
// scalar kind is coded by replaying the plan: no per-value reflection
// and no type descriptors on the wire. Each part takes a canonical little-endian form of its kind's
// width (an int, uint or uintptr 8 bytes, a complex number its two
// floats, a bool one byte), and a string a uvarint length and then its
// bytes. A plan without a string part therefore has one wire size,
// checked once before the copy loop; a plan with one checks the frame
// first (checkFrame: every string in bounds, canonical lengths, the frame
// consumed exactly), so hostile bytes on disk decode to an error, never
// to a panic or a read past the frame. A type with no plan has no codec
// (a bare []byte aside).
package runfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// scalarWidth is a scalar kind's wire width in bytes (a string's
// length prefix aside).
func scalarWidth(k reflect.Kind) int {
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

// ImageBytes views s's elements as their memory image, without a copy.
// T must be made only of numbers (Plan.image nonzero).
func ImageBytes[T any](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// littleEndian is whether this host stores numbers low byte first, as
// the wire does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireImage reports the plan's memory size when its wire form is its
// memory image, byte for byte: a type whose every bit pattern is valid
// (no bool or string part)
// whose every part sits at its wire offset, with the wire size equal to
// the memory size (no padding), on a little-endian host. Otherwise 0.
func (p *Plan) wireImage() int {
	if p.image == 0 || p.size != p.image || !littleEndian {
		return 0
	}
	off := uintptr(0)
	for _, op := range p.ops {
		if op.off != off {
			return 0
		}
		off += uintptr(scalarWidth(op.kind))
	}
	return p.image
}

// appendTo encodes the value at src (the address of a value of the
// plan's type) onto dst in its wire form.
func (p *Plan) appendTo(dst []byte, src unsafe.Pointer) []byte {
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
		case reflect.String:
			s := *(*string)(f)
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		}
	}
	return dst
}

// decodeInto decodes data, exactly one value's wire bytes, into the
// value at dst. A string is copied out of data.
func (p *Plan) decodeInto(data []byte, dst unsafe.Pointer) error {
	if p.size < 0 {
		if err := p.checkFrame(data); err != nil {
			return err
		}
	} else if len(data) != p.size {
		return fmt.Errorf("runfile: fixed-width value needs %d bytes, got %d", p.size, len(data))
	}
	pos := 0
	for _, op := range p.ops {
		f := unsafe.Add(dst, op.off)
		switch op.kind {
		case reflect.Bool:
			if data[pos] > 1 {
				return fmt.Errorf("runfile: bool part is %d, not 0 or 1", data[pos])
			}
			*(*bool)(f) = data[pos] == 1
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
		case reflect.String:
			n, m := binary.Uvarint(data[pos:])
			pos += m
			*(*string)(f) = string(data[pos : pos+int(n)])
			pos += int(n)
		}
	}
	return nil
}

// checkFrame requires data, for a plan with a string part, to be
// exactly one value's wire bytes: each string's length a canonical
// uvarint that stays inside data, and every part ending by its end.
func (p *Plan) checkFrame(data []byte) error {
	pos := 0
	for _, op := range p.ops {
		if op.kind != reflect.String {
			pos += scalarWidth(op.kind)
			continue
		}
		if pos >= len(data) {
			return fmt.Errorf("runfile: value of %d bytes ends before its string part", len(data))
		}
		n, m := binary.Uvarint(data[pos:])
		if m <= 0 || m > 1 && data[pos+m-1] == 0 || n > uint64(len(data)-pos-m) {
			return fmt.Errorf("runfile: bad string part in a %d-byte value", len(data))
		}
		pos += m + int(n)
	}
	if pos != len(data) {
		return fmt.Errorf("runfile: value of %d bytes frames %d", len(data), pos)
	}
	return nil
}
