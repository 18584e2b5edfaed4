package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/runfile"
	"repro/internal/shuffle"
)

const mib = 1 << 20

// ladderEnv is what one workload's ladder run shares: the tracer and the
// ladder's root span, a scratch directory, the workload's memory budget
// and the per-layer metrics the steps fill in.
type ladderEnv struct {
	tr        *tracer
	root      int
	dir       string
	budget    int
	hostBytes int // roofline buffer size; 0 sizes it from the last-level cache
	out       map[string]float64
}

// mbPerS is bytes over seconds in MB/s (MB = 2^20 bytes, as in the repo's
// other benchmark output).
func mbPerS(bytes int64, sec float64) float64 { return float64(bytes) / mib / sec }

// runLadder replays one pair stream through each layer alone, one harness
// span per call group: the codec, the run-file writer and readers, the
// shuffle's ingest, merge and stats under the workload's budget, and the
// host roofline in the same process.
func runLadder[K comparable, V any](env *ladderEnv, pairs []shuffle.Pair[K, V]) error {
	tr, n := env.tr, len(pairs)

	// Codec: encode every key and value; the encoded values stay in one
	// arena for the writer step.
	var arena, kbuf []byte
	var keyBytes int64
	offs := make([]int, 0, n+1)
	sec, err := tr.timed("runfile.Append", env.root, func() error {
		var err error
		for _, p := range pairs {
			if kbuf, err = runfile.Append(kbuf[:0], p.Key); err != nil {
				return err
			}
			keyBytes += int64(len(kbuf))
			offs = append(offs, len(arena))
			if arena, err = runfile.Append(arena, p.Value); err != nil {
				return err
			}
		}
		offs = append(offs, len(arena))
		return nil
	})
	if err != nil {
		return err
	}
	env.out["runfile.encode_mb_s"] = mbPerS(keyBytes+int64(len(arena)), sec)

	// Group the stream by key in canonical order (preparation, not a layer).
	members := make(map[K][]int)
	var keys []K
	for i, p := range pairs {
		if _, ok := members[p.Key]; !ok {
			keys = append(keys, p.Key)
		}
		members[p.Key] = append(members[p.Key], i)
	}
	shuffle.SortKeys(keys)

	// Run-file writer to a real file.
	var name string
	var size, body int64
	sec, err = tr.timed("runfile.Writer", env.root, func() error {
		f, err := runfile.OSFS.CreateTemp(env.dir, "ladder-*.run")
		if err != nil {
			return err
		}
		name = f.Name()
		w := runfile.NewWriter(f)
		for _, k := range keys {
			if kbuf, err = runfile.Append(kbuf[:0], k); err != nil {
				break
			}
			if err = w.BeginGroup(kbuf, len(members[k])); err != nil {
				break
			}
			for _, i := range members[k] {
				if err = w.AppendValue(arena[offs[i]:offs[i+1]]); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = w.Finish()
		}
		size, body = w.BytesWritten(), w.BodyBytes()
		return errors.Join(err, f.Close())
	})
	if name != "" {
		defer os.Remove(name)
	}
	if err != nil {
		return err
	}
	env.out["runfile.write_mb_s"] = mbPerS(size, sec)
	env.out["runfile.bytes_per_pair"] = float64(size) / float64(n)
	env.out["runfile.index_share"] = float64(size-body) / float64(size)

	// Readers: the footer index alone, then every group through the
	// mapping and through positioned reads. Each value's first byte is
	// read so that mapped pages are really touched.
	f, err := runfile.OSFS.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	var index []runfile.IndexEntry
	sec, err = tr.timed("runfile.ReadIndex", env.root, func() error {
		var err error
		index, err = runfile.ReadIndex(f, size)
		return err
	})
	if err != nil {
		return err
	}
	env.out["runfile.index_load_s"] = sec

	var touched byte
	drain := func(gb *runfile.GroupBatch, each func(*runfile.ValueBatch) error) error {
		for {
			_, vb, err := gb.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for i := 0; i < vb.Len(); i++ {
				if v := vb.Value(i); len(v) > 0 {
					touched += v[0]
				}
			}
			if each != nil {
				if err := each(vb); err != nil {
					return err
				}
			}
		}
	}
	// batches holds each group's value section for the decode step.
	var batches []*runfile.ValueBatch
	keep := func(vb *runfile.ValueBatch) error {
		own := new(runfile.ValueBatch)
		batches = append(batches, own)
		return own.SetView(append([]byte(nil), vb.Raw()...), vb.Len())
	}
	sec, err = tr.timed("runfile.Map+GroupBatchMapped", env.root, func() error {
		data, err := runfile.Map(f, size)
		if err != nil {
			return err
		}
		gb, err := runfile.NewGroupBatchMapped(data, index)
		if err == nil {
			err = drain(gb, nil)
		}
		return errors.Join(err, runfile.Unmap(f, data))
	})
	switch {
	case errors.Is(err, runfile.ErrNoMmap): // platform without mmap: the pread path is all there is
		env.out["runfile.read_mmap_mb_s"] = 0
	case err != nil:
		return err
	default:
		env.out["runfile.read_mmap_mb_s"] = mbPerS(size, sec)
	}
	sec, err = tr.timed("runfile.GroupBatch", env.root, func() error {
		return drain(runfile.NewGroupBatch(io.NewSectionReader(f, 0, size), index), nil)
	})
	if err != nil {
		return err
	}
	env.out["runfile.read_pread_mb_s"] = mbPerS(size, sec)
	if err := drain(runfile.NewGroupBatch(io.NewSectionReader(f, 0, size), index), keep); err != nil {
		return err
	}

	// Codec: decode the value sections, one value at a time and in batches.
	if _, err = tr.timed("runfile.Decode", env.root, func() error {
		for _, b := range batches {
			for i := 0; i < b.Len(); i++ {
				if _, err := runfile.Decode[V](b.Value(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var dst []V
	sec, err = tr.timed("runfile.DecodeBatch", env.root, func() error {
		var err error
		for _, b := range batches {
			if dst, err = runfile.DecodeBatch(b, dst[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.out["runfile.decode_mb_s"] = mbPerS(int64(len(arena)), sec)
	batches = nil

	// Shuffle: streaming ingest, the profile pass and the grouped merge,
	// in the order the engine calls them, under the workload's budget.
	opts := shuffle.Options{MaxBufferedPairs: env.budget}
	if env.budget > 0 {
		opts.SpillDir = env.dir
	}
	sh := shuffle.New[K, V](opts)
	defer sh.Close()
	sec, err = tr.timed("shuffle.ingest", env.root, func() error {
		const tasks = 8
		in := sh.NewIngester()
		for t := 0; t < tasks; t++ {
			w := in.Task(t, 0)
			for _, p := range pairs[t*n/tasks : (t+1)*n/tasks] {
				w.Emit(p.Key, p.Value)
			}
			if err := w.Commit(); err != nil {
				return err
			}
		}
		return in.Finish()
	})
	if err != nil {
		return err
	}
	env.out["shuffle.ingest_pairs_s"] = float64(n) / sec
	sec, err = tr.timed("shuffle.Stats", env.root, func() error {
		_, err := sh.Stats()
		return err
	})
	if err != nil {
		return err
	}
	env.out["shuffle.stats_s"] = sec
	sec, err = tr.timed("shuffle.ForEachGroupBatch", env.root, func() error {
		for p := 0; p < sh.NumPartitions(); p++ {
			if err := sh.Partition(p).ForEachGroupBatch(func(K, []V) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.out["shuffle.merge_values_s"] = float64(n) / sec

	if err := hostRoofline(env); err != nil {
		return err
	}
	env.out["runfile.write_vs_host"] = env.out["runfile.write_mb_s"] / env.out["host.seq_write_mb_s"]
	env.out["runfile.read_vs_host"] = env.out["runfile.read_mmap_mb_s"] / env.out["host.seq_read_mb_s"]
	_ = touched
	return nil
}

// hostRoofline measures what the hardware under the layers can do:
// sequential write with fsync, sequential read of the file just written
// (from the page cache, as spilled runs are read back) and memcpy, on a
// buffer of four times the last-level cache, kept between 64 and 256 MB
// (a VM may report its host's whole L3).
func hostRoofline(env *ladderEnv) error {
	size := env.hostBytes
	if size == 0 {
		size = min(max(4*lastLevelCacheBytes(), 64*mib), 256*mib)
	}
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	path := filepath.Join(env.dir, "host.dat")
	defer os.Remove(path)
	sec, err := env.tr.timed("host.seq_write", env.root, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		for off := 0; off < size && err == nil; off += mib {
			_, err = f.Write(buf[off:min(off+mib, size)])
		}
		if err == nil {
			err = f.Sync()
		}
		return errors.Join(err, f.Close())
	})
	if err != nil {
		return err
	}
	env.out["host.seq_write_mb_s"] = mbPerS(int64(size), sec)
	sec, err = env.tr.timed("host.seq_read", env.root, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var n int
		for off := 0; off < size; off += n {
			if n, err = f.Read(buf[off:min(off+mib, size)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	env.out["host.seq_read_mb_s"] = mbPerS(int64(size), sec)
	dst := make([]byte, size)
	var copies []float64
	for i := 0; i < 3; i++ {
		sec, _ = env.tr.timed("host.memcpy", env.root, func() error {
			copy(dst, buf)
			return nil
		})
		copies = append(copies, mbPerS(int64(size), sec))
	}
	env.out["host.memcpy_mb_s"] = median(copies)
	return nil
}

// lastLevelCacheBytes reads the largest CPU cache size the kernel
// reports; 32 MiB when it reports none.
func lastLevelCacheBytes() int {
	best := 0
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = mib, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil {
			best = max(best, v*mult)
		}
	}
	if best == 0 {
		return 32 * mib
	}
	return best
}
