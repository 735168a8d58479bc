package dcas_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// firstLoc is a provider that remembers the first location of the first
// DCAS issued since its last reset: the anchor an operation's
// attribution is counted under.
type firstLoc struct {
	dcas.Provider
	first *dcas.Loc
}

func (f *firstLoc) note(a1 *dcas.Loc) {
	if f.first == nil {
		f.first = a1
	}
}

func (f *firstLoc) DCAS(a1, a2 *dcas.Loc, o1, o2, n1, n2 uint64) bool {
	f.note(a1)
	return f.Provider.DCAS(a1, a2, o1, o2, n1, n2)
}

func (f *firstLoc) DCASView(a1, a2 *dcas.Loc, o1, o2, n1, n2 uint64) (uint64, uint64, bool) {
	f.note(a1)
	return f.Provider.DCASView(a1, a2, o1, o2, n1, n2)
}

// lanes is the number of attribution lanes; a DCAS is counted in lane
// ID mod lanes of its first location.  TestLaneKey in the package's own
// tests pins this copy to the implementation.
const lanes = 4

// anchor runs one operation and returns the location it anchored on.
func (f *firstLoc) anchor(t *testing.T, op func() spec.Result) *dcas.Loc {
	t.Helper()
	f.first = nil
	if r := op(); r != spec.Okay {
		t.Fatalf("push: %v", r)
	}
	if f.first == nil {
		t.Fatal("push issued no DCAS")
	}
	return f.first
}

// TestAnchorsInDistinctLanes: the left and right end anchors of every
// array and list backend land in different attribution lanes, also while
// another goroutine is constructing deques (and so drawing tokens) at the
// same time.
func TestAnchorsInDistinctLanes(t *testing.T) {
	type pusher interface {
		PushLeft(uint64) spec.Result
		PushRight(uint64) spec.Result
	}
	backends := []struct {
		name string
		mk   func(p dcas.Provider) pusher
	}{
		{"array", func(p dcas.Provider) pusher { return arraydeque.New(4, arraydeque.WithProvider(p)) }},
		{"list", func(p dcas.Provider) pusher { return listdeque.New(listdeque.WithProvider(p)) }},
		{"dummy", func(p dcas.Provider) pusher { return listdeque.NewDummy(listdeque.WithProvider(p)) }},
		{"lfrc", func(p dcas.Provider) pusher { return listdeque.NewLFRC(listdeque.WithProvider(p)) }},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			arraydeque.New(1)
			listdeque.NewLFRC()
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				rec := &firstLoc{Provider: dcas.Default()}
				d := b.mk(rec)
				l := rec.anchor(t, func() spec.Result { return d.PushLeft(5) })
				r := rec.anchor(t, func() spec.Result { return d.PushRight(6) })
				if l == r {
					t.Fatal("left and right pushes anchored on one location")
				}
				if l.ID()%lanes == r.ID()%lanes {
					t.Fatalf("construction %d: anchors %d and %d share lane %d",
						i, l.ID(), r.ID(), l.ID()%lanes)
				}
			}
		})
	}
}
