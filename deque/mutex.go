package deque

import (
	"sync/atomic"
	"unsafe"

	"dcasdeque/internal/baseline/mutexdeque"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// Mutex is the blocking baseline: a ring-buffer deque of T protected by a
// single mutex, exposed with the same interface so applications and
// benchmarks can swap implementations.  Create with NewMutex.
type Mutex[T any] struct {
	core *mutexdeque.Deque
	// slotted exactly like the DCAS deques so comparisons measure
	// synchronization, not boxing strategy.
	slots []T
	free  chan int
	inst  *instruments
	lat   bool // inst non-nil with latency enabled: stamp operations

	bound     uint64 // WithMemoryBound budget; 0 = unbounded
	slotBytes uint64
	// Wrapper-level slot ledger, kept like the arena's so the baseline
	// reports Mem in the same shape (there is no arena underneath): Live
	// is derived as allocs − frees, and Mem's audit checks it against the
	// slots missing from the free channel.
	memAllocs atomic.Uint64
	memFrees  atomic.Uint64
	memHW     atomic.Int64
}

// NewMutex returns an empty mutex-based deque with the given capacity.
// Only the telemetry options apply; the DCAS and algorithm-variant
// options are meaningless for the blocking baseline and are ignored.
// Telemetry counts operations and boundary hits at the wrapper layer
// (there are no DCAS attempts or retries to attribute — the core holds a
// lock instead).
func NewMutex[T any](capacity int, opts ...Option) *Mutex[T] {
	if capacity < 1 {
		panic("deque: capacity must be ≥ 1")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var inst *instruments
	if cfg.telemetry {
		inst = newInstruments(cfg.telemetryName, cfg.latency)
	}
	// Slot headroom beyond capacity: pushes box before discovering the
	// deque is full, so concurrent losing pushes need slots too.
	nslots := 2*capacity + 64
	var probe T
	m := &Mutex[T]{
		core:      mutexdeque.New(capacity),
		slots:     make([]T, nslots),
		free:      make(chan int, nslots),
		bound:     cfg.memBound,
		slotBytes: uint64(unsafe.Sizeof(probe)),
		inst:      inst,
		lat:       cfg.latency,
	}
	for i := 0; i < nslots; i++ {
		m.free <- i
	}
	inst.bind(m.memSnapshot)
	return m
}

// note records a completed operation when telemetry is enabled.  start
// is the operation's entry stamp (tstart), 0 when latency is off; the
// baseline has no retries, so the spin histogram stays empty and the
// op histogram measures lock-acquisition plus boxing.
func (d *Mutex[T]) note(end telemetry.End, outcome telemetry.Counter, start int64) {
	if d.inst != nil {
		d.inst.sink.OpTimed(end, outcome, 0, start)
	}
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (d *Mutex[T]) tstart() int64 {
	if d.lat {
		return metrics.Nanotime()
	}
	return 0
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (d *Mutex[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *Mutex[T]) CloseTelemetry() { d.inst.close() }

// Cap reports the deque's capacity.
func (d *Mutex[T]) Cap() int { return d.core.Cap() }

func (d *Mutex[T]) box(v T) (uint64, bool) {
	select {
	case i := <-d.free:
		d.slots[i] = v
		d.memAllocs.Add(1)
		if l := d.memLive(); l > d.memHW.Load() {
			d.memHW.Store(l) // racy max, same discipline as the arena's
		}
		return uint64(i) + 1, true
	default:
		return 0, false
	}
}

// memLive derives the held-slot count.  Frees are loaded first, as in
// the arena, so the count is never negative.
func (d *Mutex[T]) memLive() int64 {
	f := d.memFrees.Load()
	return int64(d.memAllocs.Load() - f)
}

func (d *Mutex[T]) unbox(h uint64) T {
	i := int(h - 1)
	v := d.slots[i]
	var zero T
	d.slots[i] = zero
	d.memFrees.Add(1)
	d.free <- i
	return v
}

// PushLeft implements Deque.
func (d *Mutex[T]) PushLeft(v T) error {
	start := d.tstart()
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.box(v)
	if !ok {
		d.note(telemetry.Left, telemetry.FullHits, start)
		return ErrFull
	}
	if d.core.PushLeft(h) == spec.Full {
		d.unbox(h)
		d.note(telemetry.Left, telemetry.FullHits, start)
		return ErrFull
	}
	d.note(telemetry.Left, telemetry.Pushes, start)
	return nil
}

// PushRight implements Deque.
func (d *Mutex[T]) PushRight(v T) error {
	start := d.tstart()
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.box(v)
	if !ok {
		d.note(telemetry.Right, telemetry.FullHits, start)
		return ErrFull
	}
	if d.core.PushRight(h) == spec.Full {
		d.unbox(h)
		d.note(telemetry.Right, telemetry.FullHits, start)
		return ErrFull
	}
	d.note(telemetry.Right, telemetry.Pushes, start)
	return nil
}

// PopLeft implements Deque.
func (d *Mutex[T]) PopLeft() (T, error) {
	start := d.tstart()
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		d.note(telemetry.Left, telemetry.EmptyHits, start)
		var zero T
		return zero, ErrEmpty
	}
	v := d.unbox(h)
	d.note(telemetry.Left, telemetry.Pops, start)
	return v, nil
}

// PopRight implements Deque.
func (d *Mutex[T]) PopRight() (T, error) {
	start := d.tstart()
	h, r := d.core.PopRight()
	if r == spec.Empty {
		d.note(telemetry.Right, telemetry.EmptyHits, start)
		var zero T
		return zero, ErrEmpty
	}
	v := d.unbox(h)
	d.note(telemetry.Right, telemetry.Pops, start)
	return v, nil
}

var _ Deque[int] = (*Mutex[int])(nil)
