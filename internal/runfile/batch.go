// Batch reads of run-file value sections.
//
// The per-value Reader API (Value/ValueAppend) issues one framing read
// and one typed decode per value, which makes the reduce-side merge's
// cost linear in decoder dispatches rather than in bytes. The batch
// path reads a whole group's value section in a single io.ReadFull
// into a reused arena (ValueBatch), splits the framing in memory, and
// hands the payload slices to a decoder that dispatches on the value
// type once per batch (DecodeBatch) — the row-group read pattern of
// columnar engines, applied to the value section of one key group.
//
// Arena-reuse contract: a ValueBatch's payload slices, and anything
// that aliases them, are valid only until the next batch is read into
// the same ValueBatch. DecodeBatch therefore copies the payload for
// reference types ([]byte) exactly as the per-value Decode does; the
// contract bites only callers holding raw Value(i) slices across
// reads.
package runfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"unsafe"
)

// ValueBatch holds one group's value section: the raw framed bytes in
// a reused arena plus the payload boundaries of each value. The zero
// value is ready to use. The arena is either owned (filled by a read,
// reused across calls) or a view (an alias of caller memory installed
// by SetView — typically a memory-mapped file, which must never be
// written or reused as scratch).
type ValueBatch struct {
	arena  []byte
	bounds []int // payload i spans arena[bounds[2i]:bounds[2i+1]]
	view   bool  // arena aliases caller memory; drop it, never append
}

// Len is the number of values in the batch.
func (b *ValueBatch) Len() int { return len(b.bounds) / 2 }

// Value returns the i-th payload, aliasing the arena: valid only until
// the next batch is read into b.
func (b *ValueBatch) Value(i int) []byte {
	return b.arena[b.bounds[2*i]:b.bounds[2*i+1]]
}

// Raw returns the group's framed value section, aliasing the arena; it
// replays through Writer.AppendRawBytes. On the
// indexed read path these are the file's bytes verbatim; on the
// index-free path the framing is rebuilt with canonical varint
// lengths (byte-identical for any Writer-produced file).
func (b *ValueBatch) Raw() []byte { return b.arena }

func (b *ValueBatch) reset() {
	if b.view {
		// The arena aliases memory we do not own (and for a mapping,
		// memory that is read-only): growing into it would corrupt or
		// fault. Drop the alias instead of reusing it.
		b.arena = nil
		b.view = false
	}
	b.arena = b.arena[:0]
	b.bounds = b.bounds[:0]
}

// split computes the payload bounds of the n values framed in b.arena,
// requiring the framing to consume the arena exactly.
func (b *ValueBatch) split(n int) error {
	raw := b.arena
	pos := 0
	for i := 0; i < n; i++ {
		vlen, m := binary.Uvarint(raw[pos:])
		if m <= 0 || vlen > maxLen || int64(vlen) > int64(len(raw)-pos-m) {
			return fmt.Errorf("%w: truncated raw value section", ErrCorrupt)
		}
		b.bounds = append(b.bounds, pos+m, pos+m+int(vlen))
		pos += m + int(vlen)
	}
	if pos != len(raw) {
		return fmt.Errorf("%w: %d trailing bytes in raw value section", ErrCorrupt, len(raw)-pos)
	}
	return nil
}

// SetView makes b a zero-copy view over sec, a framed value section of
// exactly n values already in memory — typically a slice of a mapped
// run file. Only the payload bounds are computed; no bytes move. The
// batch's values alias sec: they are invalid once sec's backing memory
// is unmapped or reused, and (like every batch) once the next section
// is installed into b.
func (b *ValueBatch) SetView(sec []byte, n int) error {
	consumed, err := b.viewSection(sec, n)
	if err != nil {
		return err
	}
	if consumed != len(sec) {
		b.reset()
		return fmt.Errorf("%w: %d trailing bytes in raw value section", ErrCorrupt, len(sec)-consumed)
	}
	return nil
}

// viewSection installs a zero-copy view of the n-value framed section
// at the start of data, returning how many bytes the framing consumed
// (data may extend past the section).
func (b *ValueBatch) viewSection(data []byte, n int) (int, error) {
	b.reset()
	pos := 0
	for i := 0; i < n; i++ {
		vlen, m := binary.Uvarint(data[pos:])
		if m <= 0 || vlen > maxLen || int64(vlen) > int64(len(data)-pos-m) {
			return 0, fmt.Errorf("%w: truncated raw value section", ErrCorrupt)
		}
		b.bounds = append(b.bounds, pos+m, pos+m+int(vlen))
		pos += m + int(vlen)
	}
	b.arena = data[:pos]
	b.view = true
	return pos, nil
}

// ReadSectionAt fills b with the n-value framed section at
// [off, off+byteLen) of ra using a single positioned read into b's
// reused arena — the fallback read mode when a run file cannot be
// memory-mapped. It needs no seek state, so many cursors can share one
// file handle.
func (b *ValueBatch) ReadSectionAt(ra io.ReaderAt, off, byteLen int64, n int) error {
	b.reset()
	if byteLen < 0 || byteLen > maxLen {
		return fmt.Errorf("%w: value section of %d bytes", ErrCorrupt, byteLen)
	}
	if cap(b.arena) < int(byteLen) {
		b.arena = make([]byte, byteLen)
	}
	b.arena = b.arena[:byteLen]
	if m, err := ra.ReadAt(b.arena, off); m < int(byteLen) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return corrupt(err)
	}
	return b.split(n)
}

// ReadValueBatch consumes every pending value of the current group
// into b, replacing b's previous contents. When byteLen is
// non-negative — the group's value-section length, as a footer index
// records — the section is read with a single ReadFull and the framing
// split in memory; a negative byteLen (no index at hand) falls back to
// per-value reads into the same arena. Either way
// the arena and bounds slices are reused across calls, so a streaming
// consumer allocates only when a group outgrows every previous one.
func (r *Reader) ReadValueBatch(b *ValueBatch, byteLen int64) error {
	n := r.pending
	b.reset()
	if byteLen < 0 {
		// No index: read value by value, rebuilding each framing prefix
		// into the arena so Raw() stays a replayable framed section
		// (canonical varint lengths, as the Writer produces).
		for i := 0; i < n; i++ {
			if r.pending <= 0 {
				return fmt.Errorf("%w: no pending values", ErrCorrupt)
			}
			vlen, err := r.readLen()
			if err != nil {
				return corrupt(err)
			}
			var lenBuf [binary.MaxVarintLen64]byte
			m := binary.PutUvarint(lenBuf[:], uint64(vlen))
			b.arena = append(b.arena, lenBuf[:m]...)
			start := len(b.arena)
			if cap(b.arena) < start+vlen {
				grown := make([]byte, start, start+vlen)
				copy(grown, b.arena)
				b.arena = grown
			}
			p := b.arena[start : start+vlen]
			if err := r.readFull(p); err != nil {
				return corrupt(err)
			}
			b.arena = b.arena[:start+vlen]
			b.bounds = append(b.bounds, start, start+vlen)
			r.pending--
		}
		return nil
	}
	raw, err := r.RawValues(b.arena, byteLen)
	if err != nil {
		return err
	}
	b.arena = raw
	return b.split(n)
}

// GroupBatch streams a run file group by group, reading each group's
// value section as one ValueBatch. With a footer index (ReadIndex or a
// resident copy) every section is a single buffered ReadFull; without
// one, values fill the same arena one at a time. The key buffer and
// the batch are reused across groups: both are valid only until the
// next Next call.
type GroupBatch struct {
	r     *Reader
	index []IndexEntry
	pos   int
	key   []byte
	batch ValueBatch

	data []byte // mapped mode: the full file image; nil = streaming
	doff int    // mapped mode: parse position within data
}

// NewGroupBatch wraps rd. index, when non-nil, must be the file's
// footer index (its ValueBytes drive the single-pass section reads and
// its counts are cross-checked against the stream); nil streams
// index-free.
func NewGroupBatch(rd io.Reader, index []IndexEntry) *GroupBatch {
	return &GroupBatch{r: NewReader(rd), index: index}
}

// NewGroupBatchMapped iterates the groups of a run-file image that is
// fully in memory — typically a mapping returned by Map — with zero
// copies: each key and value payload aliases data directly. data must
// start at the file header; iteration ends at the end-of-groups marker
// (or at the end of data for an image that was never Finished). index, when non-nil,
// is cross-checked exactly as in NewGroupBatch. The aliasing contract
// is the same as SetView's: key and batch are valid only until the
// next call, and never after data's mapping is released.
func NewGroupBatchMapped(data []byte, index []IndexEntry) (*GroupBatch, error) {
	if len(data) < len(magicPrefix)+1 || string(data[:len(magicPrefix)]) != string(magicPrefix[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(magicPrefix)]; v != Version2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	return &GroupBatch{data: data, doff: len(magicPrefix) + 1, index: index}, nil
}

// Next advances to the next group, returning its key and value batch.
// It returns io.EOF at a clean end of the group section — and, when an
// index was supplied, only after every indexed group has streamed, so
// a file truncated at a group boundary is ErrCorrupt, not silent
// shortfall. Key and batch are reused: they are valid only until the
// next call.
func (g *GroupBatch) Next() ([]byte, *ValueBatch, error) {
	if g.data != nil {
		return g.nextMapped()
	}
	key, n, err := g.r.NextAppend(g.key[:0])
	if err != nil {
		if err == io.EOF && g.index != nil && g.pos != len(g.index) {
			return nil, nil, fmt.Errorf("%w: file has %d groups, index says %d",
				ErrCorrupt, g.pos, len(g.index))
		}
		return nil, nil, err
	}
	g.key = key
	byteLen := int64(-1)
	if g.index != nil {
		if g.pos >= len(g.index) {
			return nil, nil, fmt.Errorf("%w: file has more groups than its index", ErrCorrupt)
		}
		e := g.index[g.pos]
		if e.Count != int64(n) {
			return nil, nil, fmt.Errorf("%w: group has %d values, index says %d", ErrCorrupt, n, e.Count)
		}
		byteLen = e.ValueBytes
		g.pos++
	}
	if err := g.r.ReadValueBatch(&g.batch, byteLen); err != nil {
		return nil, nil, err
	}
	return key, &g.batch, nil
}

// nextMapped is Next over an in-memory file image: framing is parsed in
// place and the returned key and batch alias the image.
func (g *GroupBatch) nextMapped() ([]byte, *ValueBatch, error) {
	rem := g.data[g.doff:]
	if len(rem) == 0 {
		// An unfinished image simply ends; a finished one ends at the marker.
		return g.mappedEOF()
	}
	klen, m := binary.Uvarint(rem)
	if m <= 0 {
		return nil, nil, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	if klen == footerMarker {
		return g.mappedEOF()
	}
	if klen > maxLen || int64(klen) > int64(len(rem)-m) {
		return nil, nil, fmt.Errorf("%w: key of %d bytes", ErrCorrupt, klen)
	}
	key := rem[m : m+int(klen)]
	rest := rem[m+int(klen):]
	n64, m2 := binary.Uvarint(rest)
	if m2 <= 0 || n64 > maxLen {
		return nil, nil, fmt.Errorf("%w: bad value count", ErrCorrupt)
	}
	n := int(n64)
	sec := rest[m2:]
	if g.index != nil {
		if g.pos >= len(g.index) {
			return nil, nil, fmt.Errorf("%w: file has more groups than its index", ErrCorrupt)
		}
		e := g.index[g.pos]
		if e.Count != int64(n) {
			return nil, nil, fmt.Errorf("%w: group has %d values, index says %d", ErrCorrupt, n, e.Count)
		}
		g.pos++
	}
	consumed, err := g.batch.viewSection(sec, n)
	if err != nil {
		return nil, nil, err
	}
	g.doff += m + int(klen) + m2 + consumed
	return key, &g.batch, nil
}

func (g *GroupBatch) mappedEOF() ([]byte, *ValueBatch, error) {
	if g.index != nil && g.pos != len(g.index) {
		return nil, nil, fmt.Errorf("%w: file has %d groups, index says %d",
			ErrCorrupt, g.pos, len(g.index))
	}
	return nil, nil, io.EOF
}

// DecodeBatch decodes every value of b, appending to dst, with a
// single type dispatch for the whole batch: the typed kinds decode in
// tight loops and every other type with a codec replays its compiled
// plan, looked up once. The returned slice's
// elements are fully owned copies (reference payloads are copied out
// of the arena), so only the slice header itself is subject to the
// caller's reuse discipline.
//
// The cases below deliberately mirror Decode's typed switch in
// codec.go (closure-per-element indirection would defeat the tight
// loops); any layout change there must land here too —
// TestDecodeBatchKinds pins the two paths payload-by-payload for
// every fast-path kind.
func DecodeBatch[V any](b *ValueBatch, dst []V) ([]V, error) {
	n := b.Len()
	switch xs := any(dst).(type) {
	case []int:
		for i := 0; i < n; i++ {
			x, err := decodeVarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, int(x))
		}
		return any(xs).([]V), nil
	case []int8:
		for i := 0; i < n; i++ {
			x, err := decodeVarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, int8(x))
		}
		return any(xs).([]V), nil
	case []int16:
		for i := 0; i < n; i++ {
			x, err := decodeVarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, int16(x))
		}
		return any(xs).([]V), nil
	case []int32:
		for i := 0; i < n; i++ {
			x, err := decodeVarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, int32(x))
		}
		return any(xs).([]V), nil
	case []int64:
		for i := 0; i < n; i++ {
			x, err := decodeVarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, x)
		}
		return any(xs).([]V), nil
	case []uint:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, uint(x))
		}
		return any(xs).([]V), nil
	case []uint8:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, uint8(x))
		}
		return any(xs).([]V), nil
	case []uint16:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, uint16(x))
		}
		return any(xs).([]V), nil
	case []uint32:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, uint32(x))
		}
		return any(xs).([]V), nil
	case []uint64:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, x)
		}
		return any(xs).([]V), nil
	case []uintptr:
		for i := 0; i < n; i++ {
			x, err := decodeUvarint(b.Value(i))
			if err != nil {
				return dst, err
			}
			xs = append(xs, uintptr(x))
		}
		return any(xs).([]V), nil
	case []float32:
		for i := 0; i < n; i++ {
			v := b.Value(i)
			if len(v) != 4 {
				return dst, fmt.Errorf("runfile: float32 needs 4 bytes, got %d", len(v))
			}
			xs = append(xs, math.Float32frombits(binary.LittleEndian.Uint32(v)))
		}
		return any(xs).([]V), nil
	case []float64:
		for i := 0; i < n; i++ {
			v := b.Value(i)
			if len(v) != 8 {
				return dst, fmt.Errorf("runfile: float64 needs 8 bytes, got %d", len(v))
			}
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(v)))
		}
		return any(xs).([]V), nil
	case []bool:
		for i := 0; i < n; i++ {
			v := b.Value(i)
			if len(v) != 1 {
				return dst, fmt.Errorf("runfile: bool needs 1 byte, got %d", len(v))
			}
			xs = append(xs, v[0] != 0)
		}
		return any(xs).([]V), nil
	case []string:
		for i := 0; i < n; i++ {
			xs = append(xs, string(b.Value(i)))
		}
		return any(xs).([]V), nil
	case [][]byte:
		for i := 0; i < n; i++ {
			// Copy out of the arena: Decode's ownership contract.
			xs = append(xs, append([]byte(nil), b.Value(i)...))
		}
		return any(xs).([]V), nil
	default:
		plan := PlanFor[V]()
		if plan == nil {
			return dst, errNoCodec(reflect.TypeFor[V]())
		}
		for i := 0; i < n; i++ {
			var v V
			if err := plan.decodeInto(b.Value(i), unsafe.Pointer(&v)); err != nil {
				return dst, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}
}
