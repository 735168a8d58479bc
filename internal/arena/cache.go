package arena

// Cache is a thread-local allocation cache over an Arena, reproducing the
// bulk-allocation idea of the "Hat Trick" follow-up [24]: nodes are
// "allocated in bulk and reused before being reclaimed", so the common
// path touches no shared state at all.
//
// A Cache is NOT safe for concurrent use; give each goroutine its own.
// The underlying Arena remains fully concurrent, so caches on the same
// arena may be used from different goroutines simultaneously.
type Cache[T any] struct {
	a     *Arena[T]
	lane  Lane
	batch int
	local []uint32
}

// NewCache returns a cache that moves slots between the goroutine and the
// shared arena in groups of batch (default 32 if batch < 1).  The cache
// serves one deque end: its ledger counts and freelist spills go to lane
// l, and it refills from l's freelist before the other lane's.
func NewCache[T any](a *Arena[T], l Lane, batch int) *Cache[T] {
	if batch < 1 {
		batch = 32
	}
	return &Cache[T]{a: a, lane: l, batch: batch, local: make([]uint32, 0, 2*batch)}
}

// Arena returns the underlying shared arena.
func (c *Cache[T]) Arena() *Arena[T] { return c.a }

// Alloc reserves one slot, preferring the local cache, then a contiguous
// bulk carve from the arena's never-allocated region, then the shared
// freelists (the cache's own lane first).  ok is false only when the
// arena is exhausted and nothing is cached.
func (c *Cache[T]) Alloc() (uint32, bool) {
	ln := c.a.lanes.at(c.lane)
	if n := len(c.local); n > 0 {
		idx := c.local[n-1]
		c.local = c.local[:n-1]
		c.a.countAlloc(ln)
		return idx, true
	}
	// Bulk-carve fresh contiguous slots: one shared CAS buys batch
	// allocations.
	first, got := c.a.carve(c.lane, c.batch)
	if got > 0 {
		for i := got - 1; i >= 1; i-- {
			c.local = append(c.local, first+uint32(i))
		}
		c.a.countAlloc(ln)
		return first, true
	}
	// Fresh region exhausted: refill from the shared freelists.
	if c.a.reuse {
		for _, from := range []*lane{ln, c.a.lanes.at(c.lane ^ 1)} {
			for len(c.local) < c.batch {
				idx, blk, _ := c.a.popFree(from)
				if blk == nil {
					break
				}
				c.local = append(c.local, idx)
			}
		}
		if n := len(c.local); n > 0 {
			idx := c.local[n-1]
			c.local = c.local[:n-1]
			c.a.countAlloc(ln)
			return idx, true
		}
	}
	return Nil, false
}

// Free retires a slot into the local cache (bumping its generation), and
// spills half the cache to its lane's freelist when the cache overflows,
// so slots keep circulating between goroutines.
func (c *Cache[T]) Free(idx uint32) {
	blk, off := c.a.locate(idx)
	blk.gen[off].Add(1)
	ln := c.a.lanes.at(c.lane)
	c.a.countFree(ln)
	if !c.a.reuse {
		return
	}
	c.local = append(c.local, idx)
	if len(c.local) >= 2*c.batch {
		for i := 0; i < c.batch; i++ {
			n := len(c.local)
			c.a.spill(ln, c.local[n-1])
			c.local = c.local[:n-1]
		}
	}
}

// Drain returns every cached slot to its lane's freelist.  Call it when a
// goroutine retires its cache so the slots remain allocatable.
func (c *Cache[T]) Drain() {
	if !c.a.reuse {
		c.local = c.local[:0]
		return
	}
	for _, idx := range c.local {
		c.a.spill(c.a.lanes.at(c.lane), idx)
	}
	c.local = c.local[:0]
}

// Cached reports how many slots are currently held locally.
func (c *Cache[T]) Cached() int { return len(c.local) }

// spill lists a cached slot on lane ln's freelist.
func (a *Arena[T]) spill(ln *lane, idx uint32) {
	blk, off := a.locate(idx)
	a.pushFree(ln, idx, blk, off)
}
