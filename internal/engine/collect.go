package engine

import (
	"iter"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/runfile"
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
	keys []K
	segments[O]
}

// segments is a Collector without its keys: the outputs in chunks and
// where each key's outputs end. An Image keeps only this part.
type segments[O any] struct {
	ends   []int // ends[i]: outputs through key i, counted over the unit
	full   [][]O // retired chunks, each ending on a key boundary
	cur    []O   // the chunk being filled
	start  int   // where the open key's outputs begin in cur
	sealed int   // outputs in full
}

// Emit appends o to the open key's outputs. Bind it once per unit
// (c.Emit) and pass that as the reduce function's emit.
func (c *segments[O]) Emit(o O) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, o)
}

// grow retires the full chunk cur, keeping its closed keys, and moves
// the open key's partial outputs into a new chunk: the next geometric
// size, or twice the partial key if that is larger.
func (c *segments[O]) grow() {
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
func (c *segments[O]) Len() int { return c.sealed + len(c.cur) }

// ForEach yields every closed key in order with its outputs: one slice
// into the collector's chunks, its capacity clipped to its length.
func (c *Collector[K, O]) ForEach(fn func(k K, outs []O)) {
	var at cursor
	for _, k := range c.keys {
		fn(k, c.next(&at))
	}
}

// cursor is a read position in one unit's segments: its next key, the
// chunk that key's outputs are in or after, and the offset there.
type cursor struct{ key, chunk, off int }

// next returns the outputs of at's key, capacity clipped, and moves at
// past them.
func (c *segments[O]) next(at *cursor) []O {
	lo := 0
	if at.key > 0 {
		lo = c.ends[at.key-1]
	}
	n := c.ends[at.key] - lo
	chunk := c.chunk(at.chunk)
	for at.off+n > len(chunk) { // the key's outputs open the next chunk
		at.chunk, at.off = at.chunk+1, 0
		chunk = c.chunk(at.chunk)
	}
	outs := chunk[at.off : at.off+n : at.off+n]
	at.key, at.off = at.key+1, at.off+n
	return outs
}

func (c *segments[O]) chunk(i int) []O {
	if i < len(c.full) {
		return c.full[i]
	}
	return c.cur
}

// Image is a round's outputs left where its reduce units collected
// them: each unit's segments, and the unit of every key in global key
// order (keys ascending in shuffle.SortKeys order, no key in two
// units). Read in that order, key by key, each key's outputs in
// emission order, it is the sequence a round's output slice holds, at
// a few bytes per key and no copy. A pipeline hands it to the next
// in-process round as that round's input; SliceImage makes a plain
// slice one.
type Image[O any] struct {
	units []segments[O]
	order []uint32 // order[i]: the unit holding the i-th key
	n     int      // outputs
}

// SliceImage is s as an image: one unit holding one key. The image
// reads s in place.
func SliceImage[O any](s []O) *Image[O] {
	return &Image[O]{units: []segments[O]{{ends: []int{len(s)}, cur: s}}, order: []uint32{0}, n: len(s)}
}

// newImage merges the reduce units' key lists — each sorted in
// canonical key order, no key in two units — into the image's key
// order. The units' keys are not kept.
func newImage[K comparable, O any](results []partResult[K, O]) *Image[O] {
	im := &Image[O]{units: make([]segments[O], len(results))}
	keys := make([][]K, len(results))
	for u := range results {
		im.units[u] = results[u].out.segments
		im.n += results[u].out.Len()
		keys[u] = results[u].out.keys
	}
	im.order = KeyOrder(keys)
	return im
}

// KeyOrder merges key lists, each strictly ascending in canonical key
// order, into one: the i-th entry of the result is the list that holds
// the i-th key of the merge. A key held by several lists comes from each
// in list order.
func KeyOrder[K comparable](lists [][]K) []uint32 {
	var heap []uint32 // lists with keys left, by their next key
	nkeys := 0
	for u, l := range lists {
		if len(l) > 0 {
			heap = append(heap, uint32(u))
			nkeys += len(l)
		}
	}
	order := make([]uint32, 0, nkeys)
	next := make([]int, len(lists))
	plan := runfile.PlanFor[K]()
	less := func(a, b uint32) bool {
		c := plan.Compare(unsafe.Pointer(&lists[a][next[a]]), unsafe.Pointer(&lists[b][next[b]]))
		return c < 0 || c == 0 && a < b
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		u := heap[0]
		order = append(order, u)
		if next[u]++; next[u] == len(lists[u]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return order
}

// span is a range of an image's outputs: where it starts — the next key
// in order, the outputs of that key before the range, every unit's
// cursor — and its length.
type span struct {
	key, skip, n int
	units        []cursor
}

// seek returns the spans of ranges, which are ascending, in one pass
// over the image's key order.
func (im *Image[O]) seek(ranges []TaskRange) []span {
	spans := make([]span, len(ranges))
	at := make([]cursor, len(im.units))
	key, done := 0, 0 // done: the outputs before key
	for i, rg := range ranges {
		for ; key < len(im.order); key++ {
			u := im.order[key]
			c := at[u]
			n := len(im.units[u].next(&c))
			if done+n > rg.Lo {
				break
			}
			at[u], done = c, done+n
		}
		spans[i] = span{key, rg.Lo - done, rg.Hi - rg.Lo, slices.Clone(at)}
	}
	return spans
}

// read yields the outputs of sp in image order, one slice per key (the
// first and last clipped to the span). Each range over it starts afresh.
func (im *Image[O]) read(sp span) iter.Seq[[]O] {
	return func(yield func([]O) bool) {
		at := slices.Clone(sp.units)
		skip := sp.skip
		for key, left := sp.key, sp.n; left > 0; key++ {
			u := im.order[key]
			outs := im.units[u].next(&at[u])[skip:]
			outs = outs[:min(len(outs), left)]
			skip, left = 0, left-len(outs)
			if len(outs) > 0 && !yield(outs) {
				return
			}
		}
	}
}

// assemble copies the image into one slice of its exact size, in image
// order, on up to workers goroutines, each filling a contiguous range of
// about Len/workers outputs.
func (im *Image[O]) assemble(workers int, lane *obs.Ring) (outs []O) {
	lane.Begin(obs.OpOutputAssemble, int64(len(im.order)), int64(im.n))
	defer lane.End(obs.OpOutputAssemble, int64(len(im.order)), int64(im.n))
	if im.n == 0 {
		return nil
	}
	outs = make([]O, im.n)
	var wg sync.WaitGroup
	ranges := Plan{MapChunk: (im.n + workers - 1) / workers}.MapTasks(im.n)
	for i, sp := range im.seek(ranges) {
		wg.Add(1)
		go func(dst []O) {
			defer wg.Done()
			for part := range im.read(sp) {
				dst = dst[copy(dst, part):]
			}
		}(outs[ranges[i].Lo:ranges[i].Hi])
	}
	wg.Wait()
	return outs
}
