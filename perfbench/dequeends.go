package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dcasdeque/deque"
)

// deque-ends and deque-ends-lat: the paper's disjoint-ends path. Both
// ends of one array deque are driven at once, each by its own
// goroutine, and the ends never meet, so every operation is a
// non-boundary operation on its own end.
const (
	dequeCap       = 1 << 16
	dequePrefill   = dequeCap / 2
	endBound       = 1024    // max net excursion of one end, elements
	endStreamLen   = 1 << 16 // ops in one end's repeating stream
	endSampleK     = 128     // about one op in endSampleK is timed
	endWarmCycles  = 2       // warm-up: whole streams per end
	endBatch       = 256     // ops between stop checks
	endYield       = 1 << 15 // ops between yields; a multiple of endBatch
	endSampleSlots = 1 << 18 // latency ring per end and op kind
	endSpanCap     = 1 << 16 // traced: sampled op spans kept per pass
)

// The ends never meet: each end's net excursion is at most endBound, and
// each half of the prefill is larger, while the prefill plus both
// excursions fits the capacity.
var _ = [1]int{}[max(0, 2*endBound-dequePrefill/2)+max(0, dequePrefill+2*endBound-dequeCap)]

// mix is the splitmix64 finalizer: the checksums sum mixed values, so a
// lost value and a duplicated one cannot cancel out.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	return v ^ v>>31
}

// endWorker drives one end of the deque through its op stream.
type endWorker struct {
	d      *deque.Array[uint64]
	left   bool
	stream []byte
	pos    int
	next   uint64 // next value to push; the top bit names the end

	pushed, popped  uint64 // successful operations
	pushSum, popSum uint64 // wrapping sums of mix(value)
	errs            uint64 // operations that returned an error
	pushLat, popLat ring
	spans           *spanLog // traced passes only
	trace           uint64
	done            uint64 // ops completed
	_               [64]byte
}

// ring keeps the most recent latency samples in fixed memory.
type ring struct {
	buf []uint32
	n   int
}

func (r *ring) add(v uint32) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

func (r *ring) samples() []uint32 { return r.buf[:min(r.n, len(r.buf))] }

func (w *endWorker) step() {
	op := w.stream[w.pos]
	w.pos++
	if w.pos == len(w.stream) {
		w.pos = 0
	}
	if op&opSample == 0 {
		w.do(op)
		return
	}
	t0 := now()
	w.do(op)
	t1 := now()
	if op&opPush != 0 {
		w.pushLat.add(nsSample(t1 - t0))
	} else {
		w.popLat.add(nsSample(t1 - t0))
	}
	if w.spans != nil {
		name := "deque.pop"
		if op&opPush != 0 {
			name = "deque.push"
		}
		w.trace++
		w.spans.add(span{Trace: w.trace, Name: name, Start: t0, End: t1})
	}
}

func (w *endWorker) do(op byte) {
	if op&opPush != 0 {
		v := w.next
		w.next++
		var err error
		if w.left {
			err = w.d.PushLeft(v)
		} else {
			err = w.d.PushRight(v)
		}
		if err != nil {
			w.errs++
			return
		}
		w.pushed++
		w.pushSum += mix(v)
		return
	}
	var v uint64
	var err error
	if w.left {
		v, err = w.d.PopLeft()
	} else {
		v, err = w.d.PopRight()
	}
	if err != nil {
		w.errs++
		return
	}
	w.popped++
	w.popSum += mix(v)
}

// run steps until stop is set or limit more ops (0: no limit) are
// done, checking stop every endBatch ops and yielding every endYield
// ops (see start).
func (w *endWorker) run(stop *atomic.Bool, limit uint64) {
	for n := uint64(0); ; {
		for range endBatch {
			w.step()
		}
		n += endBatch
		w.done += endBatch
		if w.done%endYield == 0 {
			runtime.Gosched()
		}
		if stop.Load() || (limit > 0 && n >= limit) {
			return
		}
	}
}

// dequeEnds is one built deque-ends system: the deque and its two end
// workers, prefilled and warmed up.
type dequeEnds struct {
	d            *deque.Array[uint64]
	ends         [2]*endWorker
	prefillSum   uint64
	prefillCount uint64
}

func buildDequeEnds(cfg runConfig, opts []deque.Option) (*dequeEnds, error) {
	d := deque.NewArray[uint64](dequeCap, opts...)
	s := &dequeEnds{d: d}
	for i := range uint64(dequePrefill) {
		if err := d.PushRight(i); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		s.prefillSum += mix(i)
	}
	s.prefillCount = dequePrefill
	for e := range s.ends {
		s.ends[e] = &endWorker{
			d:       d,
			left:    e == 0,
			stream:  endStream(cfg.seed, e, endStreamLen, endBound, endSampleK),
			next:    uint64(e+1) << 62,
			pushLat: ring{buf: sampleBuf(fmt.Sprint("end", e, ".push"), endSampleSlots)},
			popLat:  ring{buf: sampleBuf(fmt.Sprint("end", e, ".pop"), endSampleSlots)},
		}
	}
	// Warm-up: whole streams, so the timed window starts every end at
	// depth 0 and the excursion bound holds across the boundary.
	var stop atomic.Bool
	s.start(&stop, endWarmCycles*endStreamLen)()
	return s, nil
}

// start runs both ends, each until stop is set or it has done limit
// ops (0: no limit), and returns a function that waits for both. Two
// goroutines that never block can end up sharing one processor while
// the other idles — at start, or after a preemption — and the ends then
// take turns instead of running in parallel, at up to twice the
// throughput since nothing contends. A yield puts the goroutine on the
// global run queue and wakes an idle processor to take it, so the ends
// meet at a yielding barrier before their first op, and each yields
// again every endYield ops (about every 10 ms) to end any such stretch.
func (s *dequeEnds) start(stop *atomic.Bool, limit uint64) (wait func()) {
	var wg sync.WaitGroup
	var ready atomic.Int32
	for _, w := range s.ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Add(1)
			for ready.Load() < int32(len(s.ends)) {
				runtime.Gosched()
			}
			w.run(stop, limit)
		}()
	}
	return wg.Wait
}

// check drains the deque from the left and checks that every value
// ever pushed was popped exactly once. It returns the number of
// operations the drain issued.
func (s *dequeEnds) check(p *pass) (drainOps uint64) {
	in, out := s.prefillSum, uint64(0)
	inN, outN := s.prefillCount, uint64(0)
	for _, w := range s.ends {
		in += w.pushSum
		out += w.popSum
		inN += w.pushed
		outN += w.popped
		p.failed += w.errs
	}
	for {
		v, err := s.d.PopLeft()
		drainOps++
		if errors.Is(err, deque.ErrEmpty) {
			break
		}
		if err != nil {
			p.fail("drain: %v", err)
			break
		}
		out += mix(v)
		outN++
	}
	if inN != outN || in != out {
		p.fail("conservation: pushed %d values (checksum %#x), popped %d (checksum %#x)", inN, in, outN, out)
		p.failed += max(1, max(inN, outN)-min(inN, outN))
	}
	for e, w := range s.ends {
		if w.errs > 0 {
			p.fail("%d operations on end %d (0 is the left) returned an error", w.errs, e)
		}
	}
	return drainOps
}

// opsDone is every operation the ends have completed; call it only
// while they are stopped.
func (s *dequeEnds) opsDone() uint64 { return s.ends[0].done + s.ends[1].done }

// runDequeEnds measures deque-ends (lat false) or deque-ends-lat (lat
// true): the same streams, the latter on a deque built WithLatency.
func runDequeEnds(cfg runConfig, lat bool) (*pass, error) {
	p := &pass{workload: "deque-ends", traced: cfg.traced}
	var opts []deque.Option
	if lat {
		p.workload = "deque-ends-lat"
		opts = append(opts, deque.WithLatency())
	} else if cfg.traced {
		opts = append(opts, deque.WithTelemetry())
	}
	s, setups, err := timedBuild(func() (*dequeEnds, error) { return buildDequeEnds(cfg, opts) })
	if err != nil {
		return nil, err
	}
	p.setups = setups
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog(endSpanCap)
		for e, w := range s.ends {
			w.spans = spans
			w.trace = uint64(e) << 56
		}
	}
	// The window keeps only its own latency samples.
	for _, w := range s.ends {
		w.pushLat.n, w.popLat.n = 0, 0
	}
	before := s.opsDone()
	st0, _ := s.d.Stats()
	var stop atomic.Bool
	var wait func()
	measure(cfg.window, p,
		func() { wait = s.start(&stop, 0) },
		func() {
			stop.Store(true)
			wait()
		})
	p.ops = s.opsDone() - before
	st1, _ := s.d.Stats()

	var pushLat, popLat []uint32
	for _, w := range s.ends {
		pushLat = append(pushLat, w.pushLat.samples()...)
		popLat = append(popLat, w.popLat.samples()...)
	}
	p.lat = slices.Concat(pushLat, popLat)

	totalOps := s.prefillCount
	for _, w := range s.ends {
		totalOps += w.pushed + w.popped + w.errs
	}
	drainOps := s.check(p)
	if lat {
		// Every operation the deque completed, prefill and drain
		// included, is one latency observation.
		full, _ := s.d.Stats()
		n := full.Latency.Left.Op.N + full.Latency.Right.Op.N
		if want := totalOps + drainOps; n != want {
			p.fail("latency histograms hold %d observations, want %d operations", n, want)
		}
	}
	if cfg.traced {
		p.spans = spans.spans()
		p.layer = dequeLayer(p, st0, st1, pushLat, popLat)
	}
	return p, nil
}

// dequeLayer derives the dcas, deque and telemetry per-layer metrics
// of a traced deque pass from the deque's own counters over the window.
func dequeLayer(p *pass, a, b deque.Stats, pushLat, popLat []uint32) []metric {
	ops := float64(p.ops)
	attempts := float64(b.DCAS.Attempts - a.DCAS.Attempts)
	failures := float64(b.DCAS.Failures - a.DCAS.Failures)
	retries := float64(b.Left.Retries + b.Right.Retries - a.Left.Retries - a.Right.Retries)
	boundary := float64(b.Left.EmptyHits + b.Left.FullHits + b.Right.EmptyHits + b.Right.FullHits -
		a.Left.EmptyHits - a.Left.FullHits - a.Right.EmptyHits - a.Right.FullHits)
	if p.workload == "deque-ends-lat" {
		var n uint64
		if b.Latency != nil && a.Latency != nil {
			n = b.Latency.Left.Op.N + b.Latency.Right.Op.N - a.Latency.Left.Op.N - a.Latency.Right.Op.N
		}
		return []metric{{"telemetry.lat_samples_per_op", "count", share(float64(n), ops)}}
	}
	return []metric{
		{"dcas.attempts_per_op", "count", share(attempts, ops)},
		{"dcas.failure_share", "share", share(failures, attempts)},
		{"deque.push_ns_p50", "ns", quantile(pushLat, 0.5)},
		{"deque.pop_ns_p50", "ns", quantile(popLat, 0.5)},
		{"deque.retries_per_op", "count", share(retries, ops)},
		{"deque.boundary_share", "share", share(boundary, ops)},
	}
}
