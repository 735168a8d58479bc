// Package deque is the public API of this library: linearizable,
// non-blocking double-ended queues based on the double-compare-and-swap
// (DCAS) algorithms of "DCAS-Based Concurrent Deques" (Agesen, Detlefs,
// Flood, Garthwaite, Martin, Moir, Shavit, Steele — SPAA 2000).
//
// Two implementations are provided, mirroring the paper's two algorithms:
//
//   - Array (NewArray): the bounded, array-based deque of Section 3.
//     Fixed capacity, no per-operation allocation, returns ErrFull at
//     capacity.
//   - List (NewList): the unbounded, linked-list-based deque of Section 4.
//     Nodes come from an internal lock-free arena; pushes fail with
//     ErrFull only if that arena is exhausted (the paper's
//     allocator-failure case).
//
// Both allow uninterrupted concurrent access to the two ends: operations
// on opposite ends of a non-boundary deque synchronize on disjoint memory
// and proceed in parallel.  A mutex-based baseline (NewMutex) with the
// same interface is included for comparison.
//
// DCAS does not exist in shipping hardware; the implementations run on a
// software DCAS emulation (see internal/dcas).  The deque algorithms
// themselves are lock-free above that substrate, exactly as published.
//
// Elements of any type T are boxed through an internal slot arena so the
// core algorithms can operate on single-word handles; the arena is
// lock-free, so the end-to-end operations add no locking beyond the DCAS
// emulation itself.
package deque

import (
	"errors"

	"dcasdeque/internal/dcas"
)

// Errors returned by deque operations, mirroring the sequential
// specification's "empty" and "full" responses (Section 2.2).
var (
	// ErrEmpty is returned by Pop operations on an empty deque.
	ErrEmpty = errors.New("deque: empty")
	// ErrFull is returned by Push operations on a full deque (Array) or
	// when the node/slot arena is exhausted (List).
	ErrFull = errors.New("deque: full")
	// ErrUnsupported is returned by operations an implementation does not
	// provide: the Chase–Lev deque's PushLeft (the algorithm is
	// single-ended-push — see NewChaseLev).  Callers that need both push
	// ends must pick a DCAS backend.
	ErrUnsupported = errors.New("deque: operation not supported by this implementation")
	// ErrMemoryBound is returned by Push operations that would exceed the
	// deque's WithMemoryBound budget after compaction failed to make room.
	// Unlike ErrFull it signals a policy limit, not structural capacity:
	// the deque keeps working and pushes succeed again once pops release
	// enough live memory.
	ErrMemoryBound = errors.New("deque: memory bound exceeded")
)

// Deque is a linearizable double-ended queue of elements of type T.
// Implementations in this package are safe for unrestricted concurrent
// use by any number of goroutines on both ends.
type Deque[T any] interface {
	// PushLeft prepends v; it returns ErrFull if the deque is full.
	PushLeft(v T) error
	// PushRight appends v; it returns ErrFull if the deque is full.
	PushRight(v T) error
	// PopLeft removes and returns the leftmost element; it returns
	// ErrEmpty if the deque is empty.
	PopLeft() (T, error)
	// PopRight removes and returns the rightmost element; it returns
	// ErrEmpty if the deque is empty.
	PopRight() (T, error)
	// PopLMany removes up to max elements from the left end and returns
	// them in pop order (leftmost first); nil when the deque is empty or
	// max ≤ 0.  The batch is a sequence of independent PopLeft
	// operations — not an atomic multi-pop — that pays the wrapper,
	// dispatch and telemetry costs once per call instead of once per
	// element.  Work-stealing thieves use it to take several tasks from
	// a victim in one call.
	PopLMany(max int) []T
	// PopRMany is PopLMany for the right end (rightmost first).
	PopRMany(max int) []T
}

// Option configures a deque constructor.
type Option func(*config)

type config struct {
	globalLockDCAS bool
	endLockDCAS    bool
	nodeReuse      bool
	eagerDelete    bool
	dummyNodes     bool
	lfrc           bool
	maxNodes       int
	memBound       uint64
	backoff        *dcas.BackoffPolicy
	telemetry      bool
	telemetryName  string
	latency        bool
}

func defaultConfig() config {
	return config{
		nodeReuse: true,
		maxNodes:  1 << 20,
	}
}

// WithGlobalLockDCAS selects the coarse global-mutex DCAS emulation
// instead of the default fine-grained two-location emulation.  All DCAS
// operations on the deque then serialize; useful only for measurement.
func WithGlobalLockDCAS() Option {
	return func(c *config) { c.globalLockDCAS = true }
}

// WithEndLockDCAS selects the anchored in-word DCAS emulation for the
// array deque: a DCAS validates and locks the end index with one CAS of
// the index word itself (marking its spare top bit), arbitrates the cell
// with a second CAS, and commits with one store — three locked
// read-modify-writes per DCAS, against six for the lock-pair
// emulations.  It is the fastest substrate this library has on the
// contended two-ends workload.
//
// The emulation requires that one location of every DCAS pair is an
// always-anchor word with a spare bit, which only the array deque's
// (end, cell) pairs provide; list deques keep the default per-location
// emulation.
func WithEndLockDCAS() Option {
	return func(c *config) { c.endLockDCAS = true }
}

// BackoffConfig tunes the bounded exponential backoff applied after a
// failed operation attempt.  The zero value selects the library default
// (spin briefly then yield; yield immediately when GOMAXPROCS is 1).
type BackoffConfig struct {
	// MinSpins is the initial spin bound; the bound doubles after each
	// failed attempt.
	MinSpins int
	// MaxSpins caps the growing spin bound; beyond it the operation yields
	// the processor instead of spinning.
	MaxSpins int
}

// WithBackoff enables per-goroutine bounded exponential backoff with
// jitter on the deque operations' DCAS-retry loops.  Without it a failed
// attempt retries immediately, re-contending the very locations that just
// caused the failure.
func WithBackoff(cfg BackoffConfig) Option {
	return func(c *config) {
		if cfg == (BackoffConfig{}) {
			c.backoff = dcas.DefaultBackoff()
			return
		}
		c.backoff = &dcas.BackoffPolicy{
			MinSpins: uint32(cfg.MinSpins),
			MaxSpins: uint32(cfg.MaxSpins),
		}
	}
}

// WithoutNodeReuse puts the list deque's node arena in gc mode: node
// storage is never recycled during the deque's lifetime, matching the
// paper's garbage-collection assumption exactly (at the cost of memory
// growth proportional to total pushes).  No effect on the array deque.
func WithoutNodeReuse() Option {
	return func(c *config) { c.nodeReuse = false }
}

// WithEagerDelete makes list-deque pops complete their physical deletion
// before returning (the paper's footnote 6 variant) instead of leaving it
// to the next operation on that side.  No effect on the array deque.
func WithEagerDelete() Option {
	return func(c *config) { c.eagerDelete = true }
}

// WithMaxNodes bounds the list and Chase–Lev deques' element arenas
// (default 1<<20 live elements).  No effect on the array deque.
func WithMaxNodes(n int) Option {
	return func(c *config) { c.maxNodes = n }
}

// WithMemoryBound enforces a hard per-deque budget of bytes on live
// memory: element slots plus the backend's auxiliary structures (list
// nodes, LFRC objects, or the Chase–Lev ring chain), as reported by Mem.
// A push that would exceed the budget first attempts compaction
// (completing the list deques' deferred physical deletions, which frees
// spliced-out nodes and retired dummies), and fails with ErrMemoryBound
// only if the deque is still over budget — so a bounded deque degrades
// into backpressure, not unbounded growth.  Bytes ≤ 0 disables the bound
// (the default).  The budget covers live occupancy, not retained slabs:
// arena slabs are never returned to the OS during a deque's lifetime, so
// the bound caps what the high-water footprint can grow to.
//
// The bound is a policy limit checked at admission, so it is exact up to
// concurrency (each in-flight push can overshoot by one element's bytes)
// and, on the Chase–Lev backend, up to one ring doubling — ring growth
// happens inside the core push after admission and is charged at the
// next one.
func WithMemoryBound(bytes int64) Option {
	return func(c *config) {
		if bytes > 0 {
			c.memBound = uint64(bytes)
		}
	}
}
