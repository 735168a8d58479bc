package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/baseline/mutexdeque"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// Mutex is the blocking baseline: a ring-buffer deque protected by a
// single mutex, exposed with the same interface so applications and
// benchmarks can swap implementations.  Elements are boxed through the
// same slot arena as the DCAS deques, so comparisons measure
// synchronization, not boxing strategy.  Create with NewMutex.
type Mutex[T any] struct {
	slotted[T]
	batch    batchCore
	capacity int
}

// batchCore is the baseline core with its lock-once batch pops, which
// Mutex's PopLMany/PopRMany use in place of slotted's loop of single
// pops.
type batchCore interface {
	core
	PopLeftMany(out []uint64) int
	PopRightMany(out []uint64) int
}

// NewMutex returns an empty mutex-based deque with the given capacity.
// Only the telemetry and memory-bound options apply; the DCAS and
// algorithm-variant options are meaningless for the blocking baseline
// and are ignored.  Telemetry counts operations and boundary hits around
// each core call (there are no DCAS attempts or retries to attribute —
// the core holds a lock instead).  A batch pop of up to 256 elements
// holds the lock once.
func NewMutex[T any](capacity int, opts ...Option) *Mutex[T] {
	if capacity < 1 {
		panic("deque: capacity must be ≥ 1")
	}
	cfg, inst := configure(opts)
	ring := mutexdeque.New(capacity)
	var c batchCore = ring
	if inst != nil {
		c = &mutexCore{Deque: ring, sink: inst.sink, lat: cfg.latency}
	}
	// Slot headroom beyond capacity, as for Array: pushes box before
	// discovering the deque is full, so concurrent losing pushes need
	// slots too.
	slots := arena.New[T](2*capacity+64, arena.WithBlockSize(256))
	d := &Mutex[T]{slotted: newSlotted[T](c, slots, cfg, inst), batch: c, capacity: capacity}
	inst.bind(d.ledger)
	return d
}

// Cap reports the deque's capacity.
func (d *Mutex[T]) Cap() int { return d.capacity }

// PopLMany implements Deque, taking up to popManyChunk elements per
// lock acquisition.
func (d *Mutex[T]) PopLMany(max int) []T {
	return d.drain(max, arena.Left, d.batch.PopLeftMany)
}

// PopRMany implements Deque, taking up to popManyChunk elements per
// lock acquisition.
func (d *Mutex[T]) PopRMany(max int) []T {
	return d.drain(max, arena.Right, d.batch.PopRightMany)
}

// drain transfers up to max handles through the core's batch pop in
// chunks of popManyChunk, taking each from the slot arena on the
// popping end's lane, and stops early at empty.
func (d *Mutex[T]) drain(max int, l arena.Lane, pop func([]uint64) int) []T {
	if max <= 0 {
		return nil
	}
	var out []T
	buf := make([]uint64, min(max, popManyChunk))
	for len(out) < max {
		want := min(max-len(out), len(buf))
		n := pop(buf[:want])
		if n == 0 {
			break
		}
		if out == nil {
			out = make([]T, 0, n)
		}
		for _, h := range buf[:n] {
			out = append(out, d.take(l, h))
		}
		if n < want {
			break // the deque went empty mid-chunk
		}
	}
	return out
}

// mutexCore is the baseline core with telemetry: the core has no
// counters of its own, so each call records its outcome here, timed from
// entry (lock acquisition included) when latency is on.  The spin
// histogram stays empty: there are no retries.
type mutexCore struct {
	*mutexdeque.Deque
	sink *telemetry.Sink
	lat  bool
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (c *mutexCore) tstart() int64 {
	if c.lat {
		return metrics.Stamp()
	}
	return 0
}

// note records one completed operation: done when it returned normally,
// else the boundary it observed.
func (c *mutexCore) note(end telemetry.End, r spec.Result, done telemetry.Counter, start int64) spec.Result {
	switch r {
	case spec.Full:
		done = telemetry.FullHits
	case spec.Empty:
		done = telemetry.EmptyHits
	}
	c.sink.OpTimed(end, done, 0, start)
	return r
}

func (c *mutexCore) PushLeft(h uint64) spec.Result {
	start := c.tstart()
	return c.note(telemetry.Left, c.Deque.PushLeft(h), telemetry.Pushes, start)
}

func (c *mutexCore) PushRight(h uint64) spec.Result {
	start := c.tstart()
	return c.note(telemetry.Right, c.Deque.PushRight(h), telemetry.Pushes, start)
}

func (c *mutexCore) PopLeft() (uint64, spec.Result) {
	start := c.tstart()
	h, r := c.Deque.PopLeft()
	return h, c.note(telemetry.Left, r, telemetry.Pops, start)
}

func (c *mutexCore) PopRight() (uint64, spec.Result) {
	start := c.tstart()
	h, r := c.Deque.PopRight()
	return h, c.note(telemetry.Right, r, telemetry.Pops, start)
}

// PopLeftMany counts a batch as one Add covering all n pops.
func (c *mutexCore) PopLeftMany(out []uint64) int {
	n := c.Deque.PopLeftMany(out)
	c.sink.Add(telemetry.Left, telemetry.Pops, uint64(n))
	return n
}

// PopRightMany is PopLeftMany for the right end.
func (c *mutexCore) PopRightMany(out []uint64) int {
	n := c.Deque.PopRightMany(out)
	c.sink.Add(telemetry.Right, telemetry.Pops, uint64(n))
	return n
}

var _ Deque[int] = (*Mutex[int])(nil)
