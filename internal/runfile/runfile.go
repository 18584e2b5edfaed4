// Package runfile implements the on-disk format for sorted spill runs:
// the unit of the external shuffle's memory/disk exchange.
//
// A run file is a flat sequence of key groups written in the shuffle's
// canonical key order. Each group is length-prefixed binary:
//
//	uvarint len(key)  | key bytes
//	uvarint n         | n values, each: uvarint len(value) | value bytes
//
// preceded by a 5-byte header (magic "MRRF" plus a format version).
// Length prefixes make the format self-describing enough to stream,
// skip, and fuzz without a schema, while keeping the write path a
// single buffered pass over each sealed run.
//
// The file ends in a footer index. After the last group the writer
// emits an end-of-groups marker (a uvarint no legal key length can
// reach), then one compact entry per group — key bytes, value count,
// byte offset of the group, byte length of its value section — and
// finally a fixed 12-byte trailer (little-endian offset of the marker
// plus the magic "MRFI") so the index is locatable from the end of the
// file without touching group bytes. Keys are already written in sorted
// order, so the index is free to build and compresses well: each footer
// key is stored as (shared-prefix length with the previous key, suffix)
// and each offset as a delta from the previous, SSTable-style, keeping
// the footer a small fraction of the group data even for short values.
// A reader holding the index can profile or plan merges over the file
// with zero value reads; for a file whose writer died before the footer
// landed, ScanIndex reconstructs the same index from a sequential
// counting pass.
//
// Keys and values are opaque byte strings at this layer; the typed
// encoding of Go keys and values lives in codec.go.
package runfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Version2 is the one format version: the header byte every run file
// carries. Any other value is ErrCorrupt.
const Version2 = 2

// magicPrefix starts every run file; the fifth header byte is the
// format version.
var magicPrefix = [4]byte{'M', 'R', 'R', 'F'}

// indexMagic ends every finished run file, completing the trailer that
// locates the footer index.
var indexMagic = [4]byte{'M', 'R', 'F', 'I'}

// trailerLen is the fixed byte length of the trailer: an
// 8-byte little-endian offset of the end-of-groups marker followed by
// indexMagic.
const trailerLen = 12

// maxLen caps any single length prefix. A corrupt or adversarial file
// cannot make the reader allocate more than this for one key or value.
const maxLen = 1 << 30

// footerMarker is the uvarint written where the next group's key length
// would go, signalling the end of the group section.
// It is above maxLen, so no legal key length collides with it.
const footerMarker = 1 << 31

// ErrCorrupt reports a structurally invalid run file.
var ErrCorrupt = errors.New("runfile: corrupt run file")

// ErrNoIndex reports a file without a footer index (one that was never
// Finished).
var ErrNoIndex = errors.New("runfile: no footer index")

// IndexEntry describes one key group for the footer index.
type IndexEntry struct {
	// Key is the group's encoded key bytes.
	Key []byte
	// Count is the group's value count.
	Count int64
	// Offset is the byte offset of the group's framing (its key length
	// prefix) from the start of the file.
	Offset int64
	// ValueBytes is the byte length of the group's value section — the
	// framed values after the count prefix. A reader positioned after
	// the group's count prefix can copy or skip exactly this many bytes
	// to consume the group.
	ValueBytes int64
}

// ValueOffset is where the group's value section starts, in the same
// frame as Offset: after the group's key and count prefixes.
func (e IndexEntry) ValueOffset() int64 {
	return e.Offset + int64(uvarintLen(uint64(len(e.Key)))+len(e.Key)+uvarintLen(uint64(e.Count)))
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Writer streams key groups to a run file. It buffers internally; call
// Finish (which flushes) before closing the underlying file, or Flush
// alone to emit a footerless stream.
type Writer struct {
	bw       *bufio.Writer
	bytes    int64
	groups   int64
	pairs    int64
	err      error
	finished bool

	index       []IndexEntry
	curValStart int64 // file offset where the open group's values begin
	footerStart int64 // where Finish started the footer; 0 until then

	// uvbuf backs writeUvarint. A stack buffer would escape through the
	// bufio.Writer's io.Writer parameter, costing one tiny heap
	// allocation per varint — the single hottest allocation site on the
	// spill path.
	uvbuf [binary.MaxVarintLen64]byte
	// keyArena backs the index entries' key copies for the current run;
	// Reset truncates it, so a long-lived spool writer allocates key
	// storage O(log runs) times instead of once per group.
	keyArena []byte
}

// NewWriter starts a run file on w, writing the header immediately.
func NewWriter(w io.Writer) *Writer {
	rw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	rw.write(magicPrefix[:])
	rw.write([]byte{Version2})
	return rw
}

// Reset discards w's state and starts a fresh run file on out, writing the header immediately. The internal buffer and index
// storage are reused, so a long-lived writer — the spool's, which
// appends many runs to one file — allocates per run only what the run's
// keys need.
func (w *Writer) Reset(out io.Writer) {
	w.bw.Reset(out)
	w.bytes = 0
	w.groups = 0
	w.pairs = 0
	w.err = nil
	w.finished = false
	w.index = w.index[:0]
	w.keyArena = w.keyArena[:0]
	w.curValStart = 0
	w.footerStart = 0
	w.write(magicPrefix[:])
	w.write([]byte{Version2})
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.bytes += int64(n)
	w.err = err
}

func (w *Writer) writeUvarint(x uint64) {
	w.write(w.uvbuf[:binary.PutUvarint(w.uvbuf[:], x)])
}

// WriteGroup appends one key group. Callers must present groups in the
// shuffle's canonical key order; the format does not re-sort.
func (w *Writer) WriteGroup(key []byte, values [][]byte) error {
	if err := w.BeginGroup(key, len(values)); err != nil {
		return err
	}
	for _, v := range values {
		if err := w.AppendValue(v); err != nil {
			return err
		}
	}
	return w.err
}

// sealEntry records the finished byte length of the most recently
// opened group's value section.
func (w *Writer) sealEntry() {
	if len(w.index) > 0 {
		w.index[len(w.index)-1].ValueBytes = w.bytes - w.curValStart
	}
}

// BeginGroup starts a group of exactly n values; the caller must follow
// with n AppendValue calls (or one AppendRawBytes covering all n). This is
// the allocation-light path the shuffle's spill writer uses: values are
// encoded one at a time into a reused scratch buffer instead of a
// [][]byte.
func (w *Writer) BeginGroup(key []byte, n int) error {
	if w.finished {
		return fmt.Errorf("runfile: BeginGroup after Finish")
	}
	w.sealEntry()
	// Copy the caller's (typically reused) key buffer into the writer's
	// arena: one growing allocation per run instead of one per group.
	// Arena growth may reallocate, but earlier entries keep the old
	// backing array alive, so their slices stay valid.
	var kcopy []byte // empty key stays nil, as append([]byte(nil)) would
	if len(key) > 0 {
		w.keyArena = append(w.keyArena, key...)
		kcopy = w.keyArena[len(w.keyArena)-len(key):]
	}
	w.index = append(w.index, IndexEntry{
		Key:    kcopy,
		Count:  int64(n),
		Offset: w.bytes,
	})
	w.writeUvarint(uint64(len(key)))
	w.write(key)
	w.writeUvarint(uint64(n))
	w.curValStart = w.bytes
	if w.err == nil {
		w.groups++
	}
	return w.err
}

// AppendValue writes one value of the group opened by BeginGroup.
func (w *Writer) AppendValue(v []byte) error {
	w.writeUvarint(uint64(len(v)))
	w.write(v)
	if w.err == nil {
		w.pairs++
	}
	return w.err
}

// AppendRawBytes appends n already-framed values held in memory (a raw
// value section: ValueBatch.Raw, Reader.RawValues) to the group opened
// by BeginGroup, without parsing or re-encoding them. This is the
// compaction fast path: a whole group moves between run files as one
// byte copy.
func (w *Writer) AppendRawBytes(p []byte, n int) error {
	if w.err != nil {
		return w.err
	}
	w.write(p)
	if w.err == nil {
		w.pairs += int64(n)
	}
	return w.err
}

// Finish completes the file: it writes the footer index and trailer,
// then flushes. Further group writes after Finish are an error.
func (w *Writer) Finish() error {
	if w.err != nil || w.finished {
		return w.err
	}
	w.sealEntry()
	footerOff := w.bytes
	w.footerStart = footerOff
	w.writeUvarint(footerMarker)
	w.writeUvarint(uint64(len(w.index)))
	var prevKey []byte
	var prevOff int64
	for _, e := range w.index {
		lcp := commonPrefix(prevKey, e.Key)
		w.writeUvarint(uint64(lcp))
		w.writeUvarint(uint64(len(e.Key) - lcp))
		w.write(e.Key[lcp:])
		w.writeUvarint(uint64(e.Count))
		w.writeUvarint(uint64(e.Offset - prevOff))
		w.writeUvarint(uint64(e.ValueBytes))
		prevKey, prevOff = e.Key, e.Offset
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[:8], uint64(footerOff))
	copy(tr[8:], indexMagic[:])
	w.write(tr[:])
	w.finished = true
	return w.Flush()
}

// commonPrefix is the length of the longest shared prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Err is the first write error the Writer latched, or nil: after a
// failed group callback it tells an I/O failure (retryable) from an
// encoding one (the writer took every byte it was given).
func (w *Writer) Err() error { return w.err }

// Index returns the footer index accumulated so far, one entry per
// group in write order. Entries are complete (ValueBytes included) only
// after Finish. The slice and its keys are owned by the Writer; callers
// must not mutate them.
func (w *Writer) Index() []IndexEntry { return w.index }

// BytesWritten is the number of bytes accepted so far, header included
// (and footer, after Finish).
func (w *Writer) BytesWritten() int64 { return w.bytes }

// BodyBytes is the byte length of the header plus group section alone
// — the encoded run data, excluding the footer index and trailer. It
// equals BytesWritten until Finish writes the footer. Callers
// accounting spilled data volume separately from index metadata (the
// shuffle's BytesSpilled vs IndexBytesSpilled) read both.
func (w *Writer) BodyBytes() int64 {
	if w.footerStart > 0 {
		return w.footerStart
	}
	return w.bytes
}

// Groups is the number of key groups written.
func (w *Writer) Groups() int64 { return w.groups }

// Pairs is the total number of values written across all groups.
func (w *Writer) Pairs() int64 { return w.pairs }

// Reader streams key groups back from a run file.
//
// The cursor protocol: Next returns the next group's key and value
// count, after which Value may be called up to that many times. Values
// left unread when Next is called again are skipped without allocation.
// The group stream ends cleanly (io.EOF) at the footer marker — or, for
// a file that was never Finished, at the end of its last whole group;
// the footer itself is never surfaced as groups.
type Reader struct {
	br      *bufio.Reader
	started bool
	done    bool
	pending int   // values of the current group not yet read
	pos     int64 // bytes consumed from the underlying stream
}

// NewReader wraps r. The header is validated on the first Next.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// readUvarint decodes one uvarint, tracking consumed bytes. Unlike
// binary.ReadUvarint it keeps the Reader's position exact, which
// ScanIndex relies on for offsets.
func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		r.pos++
		if i == binary.MaxVarintLen64 {
			return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

func (r *Reader) readLen() (int, error) {
	x, err := r.readUvarint()
	if err != nil {
		return 0, err
	}
	if x > maxLen {
		return 0, fmt.Errorf("%w: length prefix %d exceeds limit", ErrCorrupt, x)
	}
	return int(x), nil
}

func (r *Reader) readFull(p []byte) error {
	n, err := io.ReadFull(r.br, p)
	r.pos += int64(n)
	return err
}

func (r *Reader) readHeader() error {
	var hdr [5]byte
	if err := r.readFull(hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: missing header", ErrCorrupt)
		}
		// A real I/O failure, not a short file: keep the cause in the
		// chain so callers can tell a bad disk from a bad file.
		return fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
	}
	if [4]byte(hdr[:4]) != magicPrefix {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:])
	}
	if hdr[4] != Version2 {
		return fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, hdr[4])
	}
	r.started = true
	return nil
}

// Next advances to the next group, returning its key and value count.
// It returns io.EOF at a clean end of the group section and ErrCorrupt
// (wrapped) on a truncated or invalid stream. The key is freshly
// allocated; NextAppend is the reuse path.
func (r *Reader) Next() ([]byte, int, error) {
	return r.NextAppend(nil)
}

// NextAppend is Next with the key appended to dst (which may be nil or
// a truncated scratch buffer), so a streaming consumer reuses one key
// buffer across groups instead of allocating per group.
func (r *Reader) NextAppend(dst []byte) ([]byte, int, error) {
	if r.done {
		return nil, 0, io.EOF
	}
	if !r.started {
		if err := r.readHeader(); err != nil {
			return nil, 0, err
		}
	}
	if err := r.SkipValues(); err != nil {
		return nil, 0, err
	}
	x, err := r.readUvarint()
	if err != nil {
		if err == io.EOF {
			r.done = true
			return nil, 0, io.EOF // clean end between groups
		}
		return nil, 0, corrupt(err)
	}
	if x == footerMarker {
		r.done = true // footer reached: the group section is over
		return nil, 0, io.EOF
	}
	if x > maxLen {
		return nil, 0, fmt.Errorf("%w: length prefix %d exceeds limit", ErrCorrupt, x)
	}
	klen := int(x)
	if cap(dst) < len(dst)+klen {
		grown := make([]byte, len(dst), len(dst)+klen)
		copy(grown, dst)
		dst = grown
	}
	key := dst[len(dst) : len(dst)+klen]
	if err := r.readFull(key); err != nil {
		return nil, 0, corrupt(err)
	}
	n, err := r.readLen()
	if err != nil {
		return nil, 0, corrupt(err)
	}
	r.pending = n
	return dst[:len(dst)+klen], n, nil
}

// Value reads the next value of the current group into a fresh buffer.
func (r *Reader) Value() ([]byte, error) {
	v, err := r.ValueAppend(nil)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// ValueAppend is Value with the payload appended to dst, the
// allocation-free path for consumers that decode each value before
// reading the next.
func (r *Reader) ValueAppend(dst []byte) ([]byte, error) {
	if r.pending <= 0 {
		return nil, fmt.Errorf("%w: no pending values", ErrCorrupt)
	}
	vlen, err := r.readLen()
	if err != nil {
		return nil, corrupt(err)
	}
	if cap(dst) < len(dst)+vlen {
		grown := make([]byte, len(dst), len(dst)+vlen)
		copy(grown, dst)
		dst = grown
	}
	v := dst[len(dst) : len(dst)+vlen]
	if err := r.readFull(v); err != nil {
		return nil, corrupt(err)
	}
	r.pending--
	return dst[:len(dst)+vlen], nil
}

// RawValues reads the current group's entire value section — byteLen
// framed bytes, as recorded in the file's index — appended to dst,
// consuming every pending value. The buffer replays through
// AppendRawBytes or ValuesFromRaw.
func (r *Reader) RawValues(dst []byte, byteLen int64) ([]byte, error) {
	if byteLen == 0 && r.pending == 0 {
		return dst, nil
	}
	if r.pending <= 0 {
		return nil, fmt.Errorf("%w: no pending values", ErrCorrupt)
	}
	if byteLen < 0 || byteLen > maxLen {
		return nil, fmt.Errorf("%w: value section of %d bytes exceeds limit", ErrCorrupt, byteLen)
	}
	if cap(dst) < len(dst)+int(byteLen) {
		grown := make([]byte, len(dst), len(dst)+int(byteLen))
		copy(grown, dst)
		dst = grown
	}
	p := dst[len(dst) : len(dst)+int(byteLen)]
	if err := r.readFull(p); err != nil {
		return nil, corrupt(err)
	}
	r.pending = 0
	return dst[:len(dst)+int(byteLen)], nil
}

// ValuesFromRaw iterates the n framed values of a raw value section
// captured with RawValues, yielding each payload without copying.
func ValuesFromRaw(raw []byte, n int, fn func(v []byte) error) error {
	for i := 0; i < n; i++ {
		vlen, m := binary.Uvarint(raw)
		if m <= 0 || vlen > maxLen || int64(vlen) > int64(len(raw)-m) {
			return fmt.Errorf("%w: truncated raw value section", ErrCorrupt)
		}
		if err := fn(raw[m : m+int(vlen)]); err != nil {
			return err
		}
		raw = raw[m+int(vlen):]
	}
	if len(raw) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in raw value section", ErrCorrupt, len(raw))
	}
	return nil
}

// SkipValues discards the unread values of the current group without
// allocating for their payloads.
func (r *Reader) SkipValues() error {
	for r.pending > 0 {
		vlen, err := r.readLen()
		if err != nil {
			return corrupt(err)
		}
		n, err := r.br.Discard(vlen)
		r.pos += int64(n)
		if err != nil {
			return corrupt(err)
		}
		r.pending--
	}
	return nil
}

// Offset is the byte position of the reader in the underlying stream:
// immediately after Next/NextAppend returns io.EOF or before it is
// called, the offset of the next group's framing.
func (r *Reader) Offset() int64 { return r.pos }

// ReadIndex loads the footer index of a run file through random access,
// reading only the trailer and the footer — never group bytes. It
// returns ErrNoIndex (wrapped) when the file has no trailer (it was
// never Finished); use ScanIndex to build the index from a sequential
// pass instead.
func ReadIndex(ra io.ReaderAt, size int64) ([]IndexEntry, error) {
	if size < int64(len(magicPrefix))+1+trailerLen {
		return nil, fmt.Errorf("%w: file too small for a trailer", ErrNoIndex)
	}
	var tr [trailerLen]byte
	if _, err := ra.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("%w: reading trailer: %w", ErrCorrupt, err)
	}
	if [4]byte(tr[8:]) != indexMagic {
		return nil, fmt.Errorf("%w: trailer magic missing", ErrNoIndex)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if footerOff < int64(len(magicPrefix))+1 || footerOff > size-trailerLen {
		return nil, fmt.Errorf("%w: footer offset %d out of range", ErrCorrupt, footerOff)
	}
	footer := make([]byte, size-trailerLen-footerOff)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("%w: reading footer: %w", ErrCorrupt, err)
	}
	next := func() (uint64, error) {
		x, n := binary.Uvarint(footer)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated footer", ErrCorrupt)
		}
		footer = footer[n:]
		return x, nil
	}
	marker, err := next()
	if err != nil {
		return nil, err
	}
	if marker != footerMarker {
		return nil, fmt.Errorf("%w: footer marker missing", ErrCorrupt)
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	var entries []IndexEntry
	var prevKey []byte
	var prevOff int64
	for i := uint64(0); i < count; i++ {
		lcp, err := next()
		if err != nil {
			return nil, err
		}
		slen, err := next()
		if err != nil {
			return nil, err
		}
		if lcp > uint64(len(prevKey)) {
			return nil, fmt.Errorf("%w: footer key prefix %d exceeds previous key", ErrCorrupt, lcp)
		}
		if slen > maxLen || int64(slen) > int64(len(footer)) || lcp+slen > maxLen {
			return nil, fmt.Errorf("%w: footer key length %d exceeds limit", ErrCorrupt, lcp+slen)
		}
		var key []byte // nil for an empty key, like the writer's copy
		if lcp+slen > 0 {
			key = make([]byte, 0, lcp+slen)
			key = append(key, prevKey[:lcp]...)
			key = append(key, footer[:slen]...)
		}
		footer = footer[slen:]
		e := IndexEntry{Key: key}
		cnt, err := next()
		if err != nil {
			return nil, err
		}
		offDelta, err := next()
		if err != nil {
			return nil, err
		}
		vbytes, err := next()
		if err != nil {
			return nil, err
		}
		e.Count = int64(cnt)
		e.Offset = prevOff + int64(offDelta)
		e.ValueBytes = int64(vbytes)
		prevKey, prevOff = key, e.Offset
		entries = append(entries, e)
	}
	if len(footer) != 0 {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(footer))
	}
	return entries, nil
}

// LoadIndex returns a run file's index, preferring the footer
// (ReadIndex: trailer plus footer, no group bytes) and falling back to
// a sequential scan of the group section when the footer is missing or
// torn — a writer that crashed before Finish, or a truncated trailer. A
// recoverable footer problem therefore degrades to one extra sequential
// pass instead of failing the caller's round; only when the group
// section itself is unreadable does LoadIndex fail, with both the
// footer error and the scan error in the chain. This is how run images
// whose writer may not have completed are reopened: internal/proc's
// salvage validation and the shuffle's run adoption both call it
// (in-process rounds keep their indexes resident and never do).
func LoadIndex(ra io.ReaderAt, size int64) ([]IndexEntry, error) {
	idx, err := ReadIndex(ra, size)
	if err == nil {
		return idx, nil
	}
	if !errors.Is(err, ErrNoIndex) && !errors.Is(err, ErrCorrupt) {
		return nil, err
	}
	scanned, serr := ScanIndex(io.NewSectionReader(ra, 0, size))
	if serr != nil {
		return nil, fmt.Errorf("runfile: no usable footer (%w); sequential scan: %w", err, serr)
	}
	return scanned, nil
}

// ScanIndex builds the footer index of a run file by a sequential
// counting pass over its groups (values skipped, not decoded). It is
// the torn-footer fallback for ReadIndex and must agree with the footer
// Finish would have written.
func ScanIndex(r io.Reader) ([]IndexEntry, error) {
	rd := NewReader(r)
	var entries []IndexEntry
	for {
		if !rd.started {
			if err := rd.readHeader(); err != nil {
				return nil, err
			}
		}
		off := rd.pos
		key, n, err := rd.NextAppend(nil)
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return nil, err
		}
		valStart := rd.pos
		if err := rd.SkipValues(); err != nil {
			return nil, err
		}
		entries = append(entries, IndexEntry{
			Key:        append([]byte(nil), key...),
			Count:      int64(n),
			Offset:     off,
			ValueBytes: rd.pos - valStart,
		})
	}
}

// corrupt maps io errors inside a group to ErrCorrupt: EOF mid-group is
// truncation, not a clean end. The original error stays in the chain
// (both ErrCorrupt and, say, an injected I/O failure satisfy
// errors.Is), so callers can distinguish a bad file from a bad disk.
func corrupt(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated stream", ErrCorrupt)
	}
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}
