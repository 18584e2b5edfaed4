package engine

import (
	"sync"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/shuffle"
)

// chunkBytes caps a Collector chunk. A unit's first chunk holds
// firstChunk outputs; each next one doubles, up to the cap.
const (
	chunkBytes = 64 << 10
	firstChunk = 16
)

// chunkCap is the most outputs of type O a chunk is sized for before
// the collector starts another; only a single key emitting more than
// that gets a larger chunk.
func chunkCap[O any]() int {
	return max(chunkBytes/max(int(unsafe.Sizeof(*new(O))), 1), 1)
}

// Collector gathers one reduce unit's outputs per key, keys in the order
// they were reduced (canonical key order), for both executors. Outputs
// land in chunks that grow geometrically up to chunkCap and are never
// reallocated once full. A key's outputs never straddle two chunks: a
// key still emitting when its chunk fills moves, with its partial
// outputs, into the next chunk, sized to fit them. ForEach therefore
// yields each key's outputs as one contiguous slice, and no slice is
// grown per key. The zero value is ready to use; a Collector is not
// safe for concurrent use.
type Collector[K comparable, O any] struct {
	keys   []K
	ends   []int // ends[i]: outputs through keys[i], counted over the unit
	full   [][]O // retired chunks, each ending on a key boundary
	cur    []O   // the chunk being filled
	start  int   // where the open key's outputs begin in cur
	sealed int   // outputs in full
}

// Emit appends o to the open key's outputs. Bind it once per unit
// (c.Emit) and pass that as the reduce function's emit.
func (c *Collector[K, O]) Emit(o O) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, o)
}

// grow retires the full chunk cur, keeping its closed keys, and moves
// the open key's partial outputs into a new chunk: the next geometric
// size, or twice the partial key if that is larger.
func (c *Collector[K, O]) grow() {
	partial := c.cur[c.start:]
	size := max(min(max(2*cap(c.cur), firstChunk), chunkCap[O]()), 2*len(partial))
	next := make([]O, len(partial), size)
	copy(next, partial)
	clear(partial) // the retired tail must not pin what the outputs reference
	if c.start > 0 {
		c.full = append(c.full, c.cur[:c.start:c.start])
		c.sealed += c.start
	}
	c.cur, c.start = next, 0
}

// EndKey closes key k: the outputs emitted since the previous EndKey
// (possibly none) are k's.
func (c *Collector[K, O]) EndKey(k K) {
	c.keys = append(c.keys, k)
	c.ends = append(c.ends, c.sealed+len(c.cur))
	c.start = len(c.cur)
}

// Len is the number of outputs collected.
func (c *Collector[K, O]) Len() int { return c.sealed + len(c.cur) }

// ForEach yields every closed key in order with its outputs: one slice
// into the collector's chunks, its capacity clipped to its length.
func (c *Collector[K, O]) ForEach(fn func(k K, outs []O)) {
	ci, off, prev := 0, 0, 0
	chunk := c.chunk(0)
	for i, k := range c.keys {
		n := c.ends[i] - prev
		prev = c.ends[i]
		for off+n > len(chunk) { // k's outputs open the next chunk
			ci, off = ci+1, 0
			chunk = c.chunk(ci)
		}
		fn(k, chunk[off:off+n:off+n])
		off += n
	}
}

func (c *Collector[K, O]) chunk(i int) []O {
	if i < len(c.full) {
		return c.full[i]
	}
	return c.cur
}

// assemble lays the units' outputs out in global key order — keys
// ascending (shuffle.SortKeys order), each key's outputs in emission
// order — in one allocation of the exact size. The sorted keys give
// every key its destination offset; then workers goroutines copy the
// keys' slices into place, each over a contiguous destination range.
func assemble[K comparable, O any](units []partResult[K, O], workers int, lane *obs.Ring) (outs []O) {
	nkeys, total := 0, 0
	for u := range units {
		nkeys += len(units[u].out.keys)
		total += units[u].out.Len()
	}
	lane.Begin(obs.OpOutputAssemble, int64(nkeys), int64(total))
	defer lane.End(obs.OpOutputAssemble, int64(nkeys), int64(total))

	allKeys := make([]K, 0, nkeys)
	for u := range units {
		allKeys = append(allKeys, units[u].out.keys...)
	}
	shuffle.SortKeys(allKeys)
	rank := make(map[K]int, nkeys)
	for i, k := range allKeys {
		rank[k] = i
	}
	srcs := make([][]O, nkeys)
	for u := range units {
		units[u].out.ForEach(func(k K, os []O) { srcs[rank[k]] = os })
	}
	if total > 0 {
		outs = make([]O, total)
		fill(outs, srcs, workers)
	}
	return outs
}

// fill copies srcs back to back into dst, which is exactly their total
// length, on up to workers goroutines: each takes a run of whole keys
// of about len(dst)/workers outputs, so the destination ranges are
// contiguous and disjoint.
func fill[O any](dst []O, srcs [][]O, workers int) {
	per := (len(dst) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo, off := 0, 0; lo < len(srcs); {
		hi, n := lo, 0
		for hi < len(srcs) && n < per {
			n += len(srcs[hi])
			hi++
		}
		wg.Add(1)
		go func(srcs [][]O, dst []O) {
			defer wg.Done()
			for _, s := range srcs {
				dst = dst[copy(dst, s):]
			}
		}(srcs[lo:hi], dst[off:off+n])
		lo, off = hi, off+n
	}
	wg.Wait()
}
