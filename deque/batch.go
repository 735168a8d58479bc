package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/telemetry"
)

// popManyChunk bounds the handle buffer a batch pop allocates, so a
// caller passing a huge max (e.g. "drain everything") does not force a
// proportionally huge allocation; the drain loops in chunks instead.
const popManyChunk = 256

// take returns the element behind a handle the core handed back and
// frees its slot through lane l.  A handle that does not resolve means
// the deque's state is corrupt.
func take[T any](slots *arena.Arena[T], l arena.Lane, h uint64) T {
	v, ok := slots.Take(l, h)
	if !ok {
		panic("deque: handle does not resolve (corrupt state)")
	}
	return v
}

// peekAll returns the elements behind a core's handle snapshot, freeing
// nothing.
func peekAll[T any](slots *arena.Arena[T], hs []uint64) []T {
	out := make([]T, 0, len(hs))
	for _, h := range hs {
		idx, ok := slots.Resolve(h)
		if !ok {
			panic("deque: stored handle does not resolve")
		}
		out = append(out, *slots.Get(idx))
	}
	return out
}

// popMany implements the PopLMany/PopRMany contract over a core-level
// batch pop: transfer up to max handles, take each from the slot arena
// on the popping end's lane, stop early at empty.
func popMany[T any](max int, pop func([]uint64) int, slots *arena.Arena[T], l arena.Lane) []T {
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
			out = append(out, take(slots, l, h))
		}
		if n < want {
			break // the deque went empty mid-chunk
		}
	}
	return out
}

// PopLMany implements Deque.
func (d *Array[T]) PopLMany(max int) []T {
	return popMany(max, d.core.PopLeftMany, d.slots, arena.Left)
}

// PopRMany implements Deque.
func (d *Array[T]) PopRMany(max int) []T {
	return popMany(max, d.core.PopRightMany, d.slots, arena.Right)
}

// PopLMany implements Deque.
func (d *List[T]) PopLMany(max int) []T {
	return popMany(max, d.core.PopLeftMany, d.slots, arena.Left)
}

// PopRMany implements Deque.
func (d *List[T]) PopRMany(max int) []T {
	return popMany(max, d.core.PopRightMany, d.slots, arena.Right)
}

// PopLMany implements Deque.  The whole batch drains under a single
// lock hold: the handle buffer is sized at min(max, Cap()) — capacity
// bounds what any one drain can return — so the core is entered exactly
// once however large max is.  (The previous implementation chunked
// through popMany and re-acquired the lock once per 256 handles, which
// understated the baseline in the batched-stealing comparisons.)
func (d *Mutex[T]) PopLMany(max int) []T {
	return d.drain(max, telemetry.Left, d.core.PopLeftMany)
}

// PopRMany implements Deque.  Like PopLMany: one lock hold per call.
func (d *Mutex[T]) PopRMany(max int) []T {
	return d.drain(max, telemetry.Right, d.core.PopRightMany)
}

// drain runs one single-lock-hold batch pop and unboxes the results;
// telemetry is batched as one Add covering all n pops.
func (d *Mutex[T]) drain(max int, end telemetry.End, pop func([]uint64) int) []T {
	if max <= 0 {
		return nil
	}
	buf := make([]uint64, min(max, d.core.Cap()))
	n := pop(buf)
	if n == 0 {
		return nil
	}
	if d.inst != nil {
		d.inst.sink.Add(end, telemetry.Pops, uint64(n))
	}
	out := make([]T, n)
	for i, h := range buf[:n] {
		out[i] = d.unbox(h)
	}
	return out
}
