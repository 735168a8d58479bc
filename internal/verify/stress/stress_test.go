package stress

import (
	"strings"
	"sync"
	"testing"

	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// TestArrayDequeLinearizable stress-checks the real array implementation
// (Theorem 3.1) across option combinations.
func TestArrayDequeLinearizable(t *testing.T) {
	cases := map[string][]arraydeque.Option{
		"strong":          nil,
		"weak":            {arraydeque.WithStrongDCAS(false)},
		"weak-norecheck":  {arraydeque.WithStrongDCAS(false), arraydeque.WithRecheckIndex(false)},
		"global-provider": {arraydeque.WithProvider(new(dcas.GlobalLock))},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				d := arraydeque.New(n, opts...)
				st, err := Run(d, Config{
					Threads:      3,
					OpsPerThread: 4,
					Windows:      150,
					Capacity:     n,
					Items:        d.Items,
					Seed:         uint64(n),
				})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if st.Windows != 150 {
					t.Fatalf("n=%d: %d windows checked", n, st.Windows)
				}
			}
		})
	}
}

// TestListDequeLinearizable stress-checks the real list implementation
// (Theorem 4.1) across reclamation modes and deletion policies.
func TestListDequeLinearizable(t *testing.T) {
	type target struct {
		d     Deque
		items func() ([]uint64, error)
	}
	mkBit := func(opts ...listdeque.Option) target {
		d := listdeque.New(opts...)
		return target{d, d.Items}
	}
	mkDummy := func(opts ...listdeque.Option) target {
		d := listdeque.NewDummy(opts...)
		return target{d, d.Items}
	}
	mkLFRC := func(opts ...listdeque.Option) target {
		d := listdeque.NewLFRC(opts...)
		return target{d, d.Items}
	}
	cases := map[string]target{
		"reuse-lazy":  mkBit(),
		"reuse-eager": mkBit(listdeque.WithEagerDelete(true)),
		"gc-lazy":     mkBit(listdeque.WithNodeReuse(false), listdeque.WithMaxNodes(1<<16)),
		"tiny-arena":  mkBit(listdeque.WithMaxNodes(8)), // reclamation under pressure
		"dummy":       mkDummy(),
		"dummy-gc":    mkDummy(listdeque.WithNodeReuse(false), listdeque.WithMaxNodes(1<<16)),
		"lfrc":        mkLFRC(),
	}
	for name, tgt := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := Run(tgt.d, Config{
				Threads:      3,
				OpsPerThread: 4,
				Windows:      150,
				Capacity:     spec.Unbounded,
				Items:        tgt.items,
				Seed:         7,
			})
			// The tiny arena may return Full, which the unbounded spec
			// cannot model; skip that configuration's failures only if
			// they are Full-related (they are expected).
			if err != nil {
				if name == "tiny-arena" && strings.Contains(err.Error(), "full") {
					t.Skipf("tiny arena reported full (expected): %v", err)
				}
				t.Fatal(err)
			}
			if st.Windows != 150 {
				t.Fatalf("%d windows checked", st.Windows)
			}
		})
	}
}

// TestEngineeredSubstrateLinearizable stress-checks the contention-
// engineered configurations: the anchored EndLock DCAS emulation, padded
// cells, and retry backoff, alone and combined.  Backoff stretches the
// window between a failed attempt and its retry, and EndLock locks an
// end by marking its own word, so these schedules interleave differently
// from the defaults the other tests cover.
func TestEngineeredSubstrateLinearizable(t *testing.T) {
	bo := &dcas.BackoffPolicy{MinSpins: 2, MaxSpins: 64}
	arrayCases := map[string][]arraydeque.Option{
		"backoff": {arraydeque.WithBackoff(bo)},
		"padded-backoff": {
			arraydeque.WithPaddedCells(true),
			arraydeque.WithBackoff(bo),
		},
		"endlock": {arraydeque.WithProvider(new(dcas.EndLock))},
		"endlock-backoff": {
			arraydeque.WithProvider(new(dcas.EndLock)),
			arraydeque.WithBackoff(bo),
		},
	}
	for name, opts := range arrayCases {
		t.Run("array-"+name, func(t *testing.T) {
			d := arraydeque.New(3, opts...)
			if _, err := Run(d, Config{
				Threads:      3,
				OpsPerThread: 4,
				Windows:      150,
				Capacity:     3,
				Items:        d.Items,
				Seed:         11,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	listCases := map[string]struct {
		d     Deque
		items func() ([]uint64, error)
	}{}
	{
		d := listdeque.New(listdeque.WithBackoff(bo))
		listCases["bit-backoff"] = struct {
			d     Deque
			items func() ([]uint64, error)
		}{d, d.Items}
	}
	{
		d := listdeque.NewDummy(listdeque.WithBackoff(bo))
		listCases["dummy-backoff"] = struct {
			d     Deque
			items func() ([]uint64, error)
		}{d, d.Items}
	}
	{
		// LFRC keeps the per-location provider; only backoff applies.
		d := listdeque.NewLFRC(listdeque.WithBackoff(bo))
		listCases["lfrc-backoff"] = struct {
			d     Deque
			items func() ([]uint64, error)
		}{d, d.Items}
	}
	for name, tgt := range listCases {
		t.Run("list-"+name, func(t *testing.T) {
			if _, err := Run(tgt.d, Config{
				Threads:      3,
				OpsPerThread: 4,
				Windows:      150,
				Capacity:     spec.Unbounded,
				Items:        tgt.items,
				Seed:         13,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPopHeavyAndPushHeavyMixes exercises boundary-dominated schedules.
func TestPopHeavyAndPushHeavyMixes(t *testing.T) {
	for _, bias := range []int{20, 80} {
		d := arraydeque.New(3)
		if _, err := Run(d, Config{
			Threads:      4,
			OpsPerThread: 3,
			Windows:      100,
			Capacity:     3,
			Items:        d.Items,
			Seed:         uint64(bias),
			PushBias:     bias,
		}); err != nil {
			t.Fatalf("bias=%d: %v", bias, err)
		}
	}
}

// TestConfigValidation checks the runner's parameter validation.
func TestConfigValidation(t *testing.T) {
	d := arraydeque.New(2)
	if _, err := Run(d, Config{Threads: 0, OpsPerThread: 1, Windows: 1, Capacity: 2, Items: d.Items}); err == nil {
		t.Fatal("accepted zero threads")
	}
	if _, err := Run(d, Config{Threads: 9, OpsPerThread: 9, Windows: 1, Capacity: 2, Items: d.Items}); err == nil {
		t.Fatal("accepted oversized window")
	}
}

// TestDetectsBrokenDeque plants a deliberately non-linearizable adapter (a
// popRight that duplicates values) and confirms the stress harness flags
// it; this validates the whole recording + checking pipeline.
func TestDetectsBrokenDeque(t *testing.T) {
	d := &duplicatingDeque{inner: arraydeque.New(8)}
	_, err := Run(d, Config{
		Threads:      2,
		OpsPerThread: 4,
		Windows:      50,
		Capacity:     8,
		Items:        d.inner.Items,
		Seed:         3,
		PushBias:     60,
	})
	if err == nil {
		t.Fatal("stress harness did not detect a value-duplicating deque")
	}
	if !strings.Contains(err.Error(), "NOT linearizable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// duplicatingDeque returns every popped value twice — a classic atomicity
// bug (it is, incidentally, the failure mode later found in the "Snark"
// follow-up algorithm [11], where popRight could return the same value
// twice).
type duplicatingDeque struct {
	inner *arraydeque.Deque
	mu    sync.Mutex
	last  uint64
	dupd  bool
}

func (d *duplicatingDeque) PushLeft(v uint64) spec.Result  { return d.inner.PushLeft(v) }
func (d *duplicatingDeque) PushRight(v uint64) spec.Result { return d.inner.PushRight(v) }
func (d *duplicatingDeque) PopLeft() (uint64, spec.Result) { return d.inner.PopLeft() }
func (d *duplicatingDeque) PopRight() (uint64, spec.Result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dupd && d.last != 0 {
		d.dupd = true
		return d.last, spec.Okay // duplicate the previous pop
	}
	v, r := d.inner.PopRight()
	if r == spec.Okay {
		d.last, d.dupd = v, false
	}
	return v, r
}
