package soak

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"dcasdeque/deque"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/verify/hist"
)

// Backends lists the deque backends the harness can soak.
func Backends() []string {
	return []string{"array", "list", "dummy", "lfrc", "chaselev", "mutex"}
}

// Workloads lists the churn patterns.
func Workloads() []string {
	return []string{"storm", "oscillate", "steal", "recycle"}
}

// soakDeque is what the harness needs from a backend: the public deque
// interface plus the occupancy snapshot and the quiescent contents.
type soakDeque interface {
	deque.Deque[uint64]
	Mem() deque.MemStats
	Items() ([]uint64, error)
}

// caps captures backend capability limits the workloads must respect.
type caps struct {
	// bothEnds: any goroutine may push and pop both ends (every DCAS
	// backend and the mutex baseline).  False for chaselev, where the
	// right end is owner-only (worker 0) and PushLeft is unsupported.
	bothEnds bool
}

const (
	// arrayCap is the bounded backends' capacity; targetSize keeps the
	// steady-state occupancy well inside it so workloads exercise churn,
	// not perpetual ErrFull.
	arrayCap   = 4096
	targetSize = 1024
	// maxLive bounds the unbounded backends' arenas, far above anything
	// the workloads reach — a leak hits the growth regression long
	// before it hits ErrFull.
	maxLive = 1 << 16
)

// build constructs the cell's deque.
func build(cfg *Config) (soakDeque, caps, error) {
	var opts []deque.Option
	if cfg.MemBound > 0 {
		opts = append(opts, deque.WithMemoryBound(cfg.MemBound))
	}
	switch cfg.Backend {
	case "array":
		return deque.NewArray[uint64](arrayCap, opts...), caps{bothEnds: true}, nil
	case "list":
		return deque.NewList[uint64](append(opts, deque.WithMaxNodes(maxLive))...), caps{bothEnds: true}, nil
	case "dummy":
		return deque.NewList[uint64](append(opts, deque.WithMaxNodes(maxLive), deque.WithDummyNodes())...), caps{bothEnds: true}, nil
	case "lfrc":
		return deque.NewList[uint64](append(opts, deque.WithMaxNodes(maxLive), deque.WithLFRC())...), caps{bothEnds: true}, nil
	case "chaselev":
		return deque.NewChaseLev[uint64](append(opts, deque.WithMaxNodes(maxLive))...), caps{}, nil
	case "mutex":
		return deque.NewMutex[uint64](arrayCap, opts...), caps{bothEnds: true}, nil
	}
	return nil, caps{}, fmt.Errorf("soak: unknown backend %q", cfg.Backend)
}

// worker is one churn goroutine: batches of operations under the read
// side of the quiescence gate, so the sampler's write lock is a true
// barrier between batches.
func (r *runner) worker(id int) {
	rng := rand.New(rand.NewPCG(r.cfg.Seed, uint64(id)+1))
	var ctr uint64
	for !r.stop.Load() {
		r.gate.RLock()
		phase := r.phase.Load()
		for i := 0; i < opsPerBatch; i++ {
			r.oneOp(id, rng, &ctr, phase)
		}
		r.gate.RUnlock()
		r.ops.Add(opsPerBatch)
	}
}

// oneOp issues one workload operation, respecting the backend's caps:
// on chaselev only worker 0 touches the right end, everyone else
// steals from the left.
func (r *runner) oneOp(id int, rng *rand.Rand, ctr *uint64, phase uint64) {
	cl := !r.caps.bothEnds
	size := r.size.Load()
	switch r.cfg.Workload {
	case "storm":
		// Random pressure on both ends, size-regulated around targetSize.
		pushP := 0.55
		switch {
		case size > targetSize:
			pushP = 0.25
		case size < targetSize/4:
			pushP = 0.80
		}
		r.biased(id, rng, ctr, cl, pushP)

	case "oscillate":
		// Alternating fill and drain phases (period: 2*oscSamplesPerPhase
		// samples) — exercises repeated boundary crossings and slab
		// high-water behaviour.
		pushP := 0.85
		if (phase/oscSamplesPerPhase)%2 == 1 {
			pushP = 0.15
		}
		if size > 2*targetSize {
			pushP = 0.10
		}
		r.biased(id, rng, ctr, cl, pushP)

	case "steal":
		// One producer on the right end, everyone else batch-stealing
		// from the left — the scheduler's access pattern.
		if id == 0 {
			if size < 2*targetSize && rng.IntN(10) < 8 {
				r.push(id, ctr, true)
			} else {
				r.pop(id, true)
			}
		} else {
			r.popMany(id, 8)
		}

	case "recycle":
		// Maximum reclamation traffic: every element transits the whole
		// deque immediately, so every op churns a node (and, on the dummy
		// variant, spawns delete-bit dummies on both ends).
		if cl {
			if id == 0 {
				r.push(id, ctr, true)
				if size > targetSize {
					r.pop(id, true)
				}
			} else {
				r.popMany(id, 4)
			}
		} else {
			right := rng.IntN(2) == 1
			r.push(id, ctr, right)
			r.pop(id, !right)
		}
	}
}

// biased issues a push with probability pushP, otherwise a pop, with
// ends chosen uniformly where the backend allows it.
func (r *runner) biased(id int, rng *rand.Rand, ctr *uint64, cl bool, pushP float64) {
	if rng.Float64() < pushP {
		if cl {
			if id == 0 {
				r.push(id, ctr, true)
			} else {
				r.popMany(id, 4)
			}
		} else {
			r.push(id, ctr, rng.IntN(2) == 1)
		}
		return
	}
	if cl {
		if id == 0 && rng.IntN(2) == 0 {
			r.pop(id, true)
		} else {
			r.popMany(id, 4)
		}
	} else {
		r.pop(id, rng.IntN(2) == 1)
	}
}

// push issues one push on the given end, records it in the flight
// recorder, and on ErrMemoryBound converts the rejection into
// backpressure (count it, relieve pressure with a pop) — the same
// degradation a bounded application would implement.
func (r *runner) push(id int, ctr *uint64, right bool) {
	v := uint64(id+1)<<32 | (*ctr & 0xffffffff)
	*ctr++
	k := hist.PushLeft
	if right {
		k = hist.PushRight
	}
	tk := r.rec.Begin()
	var err error
	if right {
		err = r.d.PushRight(v)
	} else {
		err = r.d.PushLeft(v)
	}
	res := spec.Okay
	switch {
	case err == nil:
		r.size.Add(1)
	case errors.Is(err, deque.ErrFull), errors.Is(err, deque.ErrMemoryBound):
		res = spec.Full
	}
	r.rec.End(id, k, v, 0, res, tk)
	if errors.Is(err, deque.ErrMemoryBound) {
		r.boundHits.Add(1)
		r.pop(id, right)
	}
}

// pop issues one pop on the given end and records it.
func (r *runner) pop(id int, right bool) bool {
	k := hist.PopLeft
	if right {
		k = hist.PopRight
	}
	tk := r.rec.Begin()
	var v uint64
	var err error
	if right {
		v, err = r.d.PopRight()
	} else {
		v, err = r.d.PopLeft()
	}
	res := spec.Okay
	if errors.Is(err, deque.ErrEmpty) {
		res = spec.Empty
	}
	r.rec.End(id, k, 0, v, res, tk)
	if err == nil {
		r.size.Add(-1)
		return true
	}
	return false
}

// popMany batch-steals up to max elements from the left end.  The batch
// is recorded as one flight event (Arg = batch bound, Val = last value
// taken) — enough for post-mortem reading, though not element-exact.
func (r *runner) popMany(id, max int) int {
	tk := r.rec.Begin()
	got := r.d.PopLMany(max)
	res, last := spec.Okay, uint64(0)
	if len(got) == 0 {
		res = spec.Empty
	} else {
		last = got[len(got)-1]
	}
	r.rec.End(id, hist.PopLeft, uint64(max), last, res, tk)
	r.size.Add(-int64(len(got)))
	return len(got)
}
