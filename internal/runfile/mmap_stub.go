//go:build !(linux || darwin)

package runfile

import "os"

func sysMmap(*os.File, int64) ([]byte, error) { return nil, ErrNoMmap }

func sysMadvise([]byte) error { return ErrNoMmap }

func sysMunmap([]byte) error { return ErrNoMmap }
