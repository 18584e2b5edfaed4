package runfile

import "fmt"

// The per-value reader: the reference FuzzValueBatch and the round-trip
// tests hold the batch paths (ValueBatch, Codec.DecodeSection) to. The
// runtime reads a group's values as one section (RawValues,
// ReadSectionAt).

// Next advances to the next group, returning its key and value count.
// It returns io.EOF at a clean end of the group section and ErrCorrupt
// (wrapped) on a truncated or invalid stream. The key is freshly
// allocated.
func (r *Reader) Next() ([]byte, int, error) {
	return r.NextAppend(nil)
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
