package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/telemetry"
)

// popManyChunk bounds the handle buffer a batch pop allocates, so a
// caller passing a huge max (e.g. "drain everything") does not force a
// proportionally huge allocation; the drain loops in chunks instead.
const popManyChunk = 256

// popMany implements the PopLMany/PopRMany contract over a core-level
// batch pop and the implementation's unboxer: transfer up to max
// handles, unbox each on the popping end's arena lane, stop early at
// empty.
func popMany[T any](max int, pop func([]uint64) int, l arena.Lane, unbox func(arena.Lane, uint64) T) []T {
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
			out = append(out, unbox(l, h))
		}
		if n < want {
			break // the deque went empty mid-chunk
		}
	}
	return out
}

// PopLMany implements Deque.
func (d *Array[T]) PopLMany(max int) []T {
	return popMany(max, d.core.PopLeftMany, arena.Left, d.unbox)
}

// PopRMany implements Deque.
func (d *Array[T]) PopRMany(max int) []T {
	return popMany(max, d.core.PopRightMany, arena.Right, d.unbox)
}

// PopLMany implements Deque.
func (d *List[T]) PopLMany(max int) []T {
	return popMany(max, d.core.PopLeftMany, arena.Left, d.unbox)
}

// PopRMany implements Deque.
func (d *List[T]) PopRMany(max int) []T {
	return popMany(max, d.core.PopRightMany, arena.Right, d.unbox)
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
