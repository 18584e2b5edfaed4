//go:build linux || darwin

package runfile

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

func sysMmap(f *os.File, length int64) ([]byte, error) {
	if length > math.MaxInt32 && ^uint(0)>>32 == 0 {
		return nil, fmt.Errorf("runfile: %d-byte mapping exceeds address space", length)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
}

func sysMadvise(data []byte) error {
	// Merges sweep each run forward; tell readahead so.
	return syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
}

func sysMunmap(data []byte) error { return syscall.Munmap(data) }
