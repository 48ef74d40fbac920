package mem

import "repro/internal/flat"

// TagCompressor implements the compressed-tag lookup table of paper
// §3.2. Each Triage metadata entry must fit in 4 bytes, so the full
// address tag (everything above the set-index bits) is compressed to a
// small identifier through a lookup table. The paper uses a 10-bit
// compressed tag; we parameterize the width.
//
// The table is a direct mapping in both directions: full tag -> id and
// id -> full tag. When the table is full, the least-recently-used id is
// recycled: Lookup of the tag it named now fails, and metadata entries
// that still hold the id resolve to its new tag, a silent misprediction.
// That is the information loss a real fixed-size compression table
// would suffer.
type TagCompressor struct {
	bits    uint
	fwd     *flat.Map // full tag -> compressed id
	rev     []uint64  // compressed id -> full tag
	revOK   []bool    // id currently mapped
	stamp   []uint64  // LRU timestamps per id
	clock   uint64
	recycle uint64 // number of ids recycled (stat)
}

// NewTagCompressor returns a compressor producing ids of the given bit
// width (the paper uses 10 bits, i.e. 1024 distinct tags).
func NewTagCompressor(bits uint) *TagCompressor {
	if bits == 0 || bits > 31 {
		panic("mem: TagCompressor width must be in [1,31]")
	}
	n := 1 << bits
	return &TagCompressor{
		bits:  bits,
		fwd:   flat.NewMap(n),
		rev:   make([]uint64, n),
		revOK: make([]bool, n),
		stamp: make([]uint64, n),
	}
}

// Bits returns the compressed-tag width in bits.
func (c *TagCompressor) Bits() uint { return c.bits }

// Capacity returns the number of distinct tags the table can hold.
func (c *TagCompressor) Capacity() int { return 1 << c.bits }

// Recycled returns how many ids have been recycled due to capacity.
func (c *TagCompressor) Recycled() uint64 { return c.recycle }

// Compress returns the compressed id for the full tag, allocating (and
// possibly recycling) an id if the tag is not yet in the table.
func (c *TagCompressor) Compress(tag uint64) uint32 {
	c.clock++
	if v, ok := c.fwd.Get(tag); ok {
		id := uint32(v)
		c.stamp[id] = c.clock
		return id
	}
	id := c.allocate()
	if c.revOK[id] {
		c.fwd.Delete(c.rev[id])
		c.recycle++
	}
	c.fwd.Set(tag, uint64(id))
	c.rev[id] = tag
	c.revOK[id] = true
	c.stamp[id] = c.clock
	return id
}

// Lookup returns the compressed id for tag without allocating.
func (c *TagCompressor) Lookup(tag uint64) (uint32, bool) {
	v, ok := c.fwd.Get(tag)
	id := uint32(v)
	if ok {
		c.clock++
		c.stamp[id] = c.clock
	}
	return id, ok
}

// Decompress returns the full tag for a compressed id: the tag it was
// last handed out for. ok is false if the id was never handed out.
func (c *TagCompressor) Decompress(id uint32) (uint64, bool) {
	if int(id) >= len(c.rev) || !c.revOK[id] {
		return 0, false
	}
	return c.rev[id], true
}

// allocate finds a free id, or the LRU id if none is free.
func (c *TagCompressor) allocate() uint32 {
	var lru uint32
	lruStamp := ^uint64(0)
	for i := range c.revOK {
		if !c.revOK[i] {
			return uint32(i)
		}
		if c.stamp[i] < lruStamp {
			lruStamp = c.stamp[i]
			lru = uint32(i)
		}
	}
	return lru
}
