// Value sections: the framed values of one key group.
//
// A group's values are written as one section, n frames of a uvarint
// length and a payload. Codec.DecodeSection (codec.go) decodes a
// section in one walk, checking each frame as it goes, and CheckSection
// checks one that is copied raw; the reduce merge and the proc input
// reader take a section straight out of a mapped run or read it with
// one positioned read (ReadSectionAt). ValueBatch and GroupBatch keep
// each payload's bounds for readers that take the payloads one by one
// (Value(i)), the row-group read pattern of columnar engines applied to
// the value section of one key group.
//
// Arena-reuse contract: a ValueBatch's payload slices, and anything
// that aliases them, are valid only until the next batch is read into
// the same ValueBatch. Decoded values own their bytes ([]byte values
// are copied), so the contract bites only callers holding raw Value(i)
// slices across reads.
package runfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
// replays through Writer.AppendRawBytes. On the indexed read path these
// are the file's bytes verbatim; on the index-free path the framing is
// rebuilt with canonical varint lengths (byte-identical for any
// Writer-produced file).
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

// frame records the payload bounds of the n frames at the start of
// b.arena and returns the bytes they span (the arena may run past them).
func (b *ValueBatch) frame(n int) (int, error) {
	pos := 0
	for i := 0; i < n; i++ {
		start, end, err := nextFrame(b.arena, pos)
		if err != nil {
			return 0, err
		}
		b.bounds = append(b.bounds, start, end)
		pos = end
	}
	return pos, nil
}

// nextFrame reads the length prefix of the frame at sec[pos:] and
// returns its payload's bounds, which must lie inside sec.
func nextFrame(sec []byte, pos int) (start, end int, err error) {
	vlen, m := binary.Uvarint(sec[pos:])
	if m <= 0 || vlen > maxLen || vlen > uint64(len(sec)-pos-m) {
		return 0, 0, fmt.Errorf("%w: truncated raw value section", ErrCorrupt)
	}
	start = pos + m
	return start, start + int(vlen), nil
}

// sectionEnd requires a section's frames, ending at pos, to use sec up.
func sectionEnd(sec []byte, pos int) error {
	if pos != len(sec) {
		return fmt.Errorf("%w: %d trailing bytes in raw value section", ErrCorrupt, len(sec)-pos)
	}
	return nil
}

// CheckSection requires sec to be exactly n framed values, as
// Codec.DecodeSection does, without decoding them: the check a section
// passes before Writer.AppendRawBytes copies it verbatim.
func CheckSection(sec []byte, n int) error {
	pos := 0
	for i := 0; i < n; i++ {
		_, end, err := nextFrame(sec, pos)
		if err != nil {
			return err
		}
		pos = end
	}
	return sectionEnd(sec, pos)
}

// SetView makes b a zero-copy view over sec, a framed value section of
// exactly n values already in memory — typically a slice of a mapped
// run file. Only the payload bounds are computed; no bytes move. The
// batch's values alias sec: they are invalid once sec's backing memory
// is unmapped or reused, and (like every batch) once the next section
// is installed into b.
func (b *ValueBatch) SetView(sec []byte, n int) error {
	pos, err := b.viewPrefix(sec, n)
	if err == nil {
		err = sectionEnd(sec, pos)
	}
	if err != nil {
		b.reset()
	}
	return err
}

// viewPrefix installs a zero-copy view of the n-value framed section at
// the start of data, returning how many bytes the framing consumed
// (data may extend past the section).
func (b *ValueBatch) viewPrefix(data []byte, n int) (int, error) {
	b.reset()
	b.arena, b.view = data, true
	pos, err := b.frame(n)
	b.arena = data[:pos]
	return pos, err
}

// ReadSectionAt reads the value section at [off, off+byteLen) of ra
// with a single positioned read into buf's memory, grown when it is too
// small, and returns it — the fallback read mode when a run file cannot
// be memory-mapped. It needs no seek state, so many cursors can share
// one file handle. A short read is ErrCorrupt; the section's framing is
// its consumer's to check (Codec.DecodeSection, CheckSection).
func ReadSectionAt(ra io.ReaderAt, off, byteLen int64, buf []byte) ([]byte, error) {
	if byteLen < 0 || byteLen > maxLen {
		return nil, fmt.Errorf("%w: value section of %d bytes", ErrCorrupt, byteLen)
	}
	buf = slices.Grow(buf[:0], int(byteLen))[:byteLen]
	if m, err := ra.ReadAt(buf, off); m < int(byteLen) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, corrupt(err)
	}
	return buf, nil
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
	pos, err := b.frame(n)
	if err == nil {
		err = sectionEnd(raw, pos)
	}
	return err
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
	if err == io.EOF {
		return g.eof()
	}
	if err != nil {
		return nil, nil, err
	}
	g.key = key
	byteLen, err := g.indexed(n)
	if err != nil {
		return nil, nil, err
	}
	if err := g.r.ReadValueBatch(&g.batch, byteLen); err != nil {
		return nil, nil, err
	}
	return key, &g.batch, nil
}

// indexed cross-checks the next group's value count against the index,
// when there is one, and returns its value-section length (-1 without
// an index).
func (g *GroupBatch) indexed(n int) (int64, error) {
	if g.index == nil {
		return -1, nil
	}
	if g.pos >= len(g.index) {
		return 0, fmt.Errorf("%w: file has more groups than its index", ErrCorrupt)
	}
	e := g.index[g.pos]
	if e.Count != int64(n) {
		return 0, fmt.Errorf("%w: group has %d values, index says %d", ErrCorrupt, n, e.Count)
	}
	g.pos++
	return e.ValueBytes, nil
}

// nextMapped is Next over an in-memory file image: framing is parsed in
// place and the returned key and batch alias the image.
func (g *GroupBatch) nextMapped() ([]byte, *ValueBatch, error) {
	rem := g.data[g.doff:]
	if len(rem) == 0 {
		// An unfinished image simply ends; a finished one ends at the marker.
		return g.eof()
	}
	klen, m := binary.Uvarint(rem)
	if m <= 0 {
		return nil, nil, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	if klen == footerMarker {
		return g.eof()
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
	if _, err := g.indexed(n); err != nil {
		return nil, nil, err
	}
	consumed, err := g.batch.viewPrefix(rest[m2:], n)
	if err != nil {
		return nil, nil, err
	}
	g.doff += m + int(klen) + m2 + consumed
	return key, &g.batch, nil
}

// eof ends the group section: cleanly, unless an index promised more
// groups.
func (g *GroupBatch) eof() ([]byte, *ValueBatch, error) {
	if g.index != nil && g.pos != len(g.index) {
		return nil, nil, fmt.Errorf("%w: file has %d groups, index says %d",
			ErrCorrupt, g.pos, len(g.index))
	}
	return nil, nil, io.EOF
}

// DecodeBatch decodes every value of b onto dst, CodecFor[V]'s
// DecodeSection over b's section. The decoded values own their bytes.
func DecodeBatch[V any](b *ValueBatch, dst []V) ([]V, error) {
	return CodecFor[V]().DecodeSection(b.Raw(), b.Len(), dst)
}
