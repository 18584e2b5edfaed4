// Memory-mapped run-file reads.
//
// A merge over spilled runs re-reads bytes that the writer pushed
// through the page cache moments earlier. The copying read path pulls
// them back through a bufio buffer and an arena — two more copies of
// data that is already resident in memory. The mapping seam below lets
// a reader decode value sections directly out of the mapped page cache
// instead: Map returns a read-only []byte over the file's body, and
// Codec.DecodeSection, ValueBatch.SetView and NewGroupBatchMapped read
// sections in place with zero intermediate copies.
//
// Mapping is strictly optional. Map fails cleanly (ErrNoMmap, or the
// platform error) when the File does not support it — a non-OS FS, a
// fault-injection wrapper told to refuse, or a platform without mmap —
// and callers fall back to positioned reads (ReadSectionAt)
// through the same FS seam, so every byte still crosses an injectable
// boundary in tests.
package runfile

import (
	"errors"
	"fmt"
)

// ErrNoMmap reports a File that cannot be memory-mapped; callers should
// fall back to positioned reads.
var ErrNoMmap = errors.New("runfile: file does not support memory mapping")

// Mapper is the optional interface of Files whose contents can be
// memory-mapped. OSFS files implement it on platforms with mmap; the
// errfs harness implements it to inject map/advise/unmap failures.
type Mapper interface {
	// Mmap returns a read-only mapping of the file's first length
	// bytes. The mapping stays valid after the File is closed, until
	// Munmap.
	Mmap(length int64) ([]byte, error)
	// Madvise hints the kernel about the access pattern of a mapping
	// returned by Mmap. A failure means the caller should abandon the
	// mapping (Munmap it) and fall back to positioned reads.
	Madvise(data []byte) error
	// Munmap releases a mapping returned by Mmap.
	Munmap(data []byte) error
}

// Map returns a read-only mapping of f's first length bytes, advised
// for the reader's access pattern. It returns ErrNoMmap when f does not
// implement Mapper (and the platform error when the map or advise call
// fails); either way the caller falls back to positioned reads.
func Map(f File, length int64) ([]byte, error) {
	m, ok := f.(Mapper)
	if !ok {
		return nil, ErrNoMmap
	}
	if length <= 0 {
		return nil, fmt.Errorf("runfile: cannot map %d bytes", length)
	}
	data, err := m.Mmap(length)
	if err != nil {
		return nil, err
	}
	if err := m.Madvise(data); err != nil {
		m.Munmap(data)
		return nil, err
	}
	return data, nil
}

// Unmap releases a mapping returned by Map. Safe on a nil mapping.
func Unmap(f File, data []byte) error {
	if data == nil {
		return nil
	}
	m, ok := f.(Mapper)
	if !ok {
		return ErrNoMmap
	}
	return m.Munmap(data)
}

// View returns f's first length bytes to read in place and a release to
// call when done with them: a mapping (Map) when f can be mapped, else
// one positioned read (ReadSectionAt) into *buf, which keeps the grown
// buffer for the caller's next View.
func View(f File, length int64, buf *[]byte) ([]byte, func(), error) {
	if m, err := Map(f, length); err == nil {
		return m, func() { Unmap(f, m) }, nil
	}
	data, err := ReadSectionAt(f, 0, length, *buf)
	if err != nil {
		return nil, nil, err
	}
	*buf = data
	return data, func() {}, nil
}
