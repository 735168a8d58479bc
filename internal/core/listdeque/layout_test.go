package listdeque

import (
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// The list deques' always-hot words are the sentinels' inward pointers:
// every operation loads (and most DCAS) SL.r or SR.l.  The constructors
// allocate the sentinels on opposite arena lanes, which carve from
// opposite ends of the arena, so those words land in disjoint
// false-sharing ranges; these tests pin that geometry, down to a
// four-node arena (a three-node one leaves the plain deque's words 120
// bytes apart).

func hotWordGap(t *testing.T, name string, slR, srL unsafe.Pointer) {
	t.Helper()
	a, b := uintptr(slR), uintptr(srL)
	if b < a {
		a, b = b, a
	}
	if gap := b - a; gap < dcas.FalseSharingRange {
		t.Fatalf("%s: sentinel hot words %d bytes apart, want ≥ %d",
			name, gap, dcas.FalseSharingRange)
	}
	if dcas.CacheLineOf(slR) == dcas.CacheLineOf(srL) {
		t.Fatalf("%s: sentinel hot words share a cache line", name)
	}
}

func TestSentinelLayout(t *testing.T) {
	for _, d := range []*Deque{New(), New(WithMaxNodes(4))} {
		hotWordGap(t, "New",
			unsafe.Pointer(&d.node(d.sl).r), unsafe.Pointer(&d.node(d.sr).l))
	}
}

func TestSentinelLayoutDummy(t *testing.T) {
	for _, d := range []*DummyDeque{NewDummy(), NewDummy(WithMaxNodes(4))} {
		hotWordGap(t, "NewDummy",
			unsafe.Pointer(&d.node(d.sl).r), unsafe.Pointer(&d.node(d.sr).l))
	}
}

func TestSentinelLayoutLFRC(t *testing.T) {
	for _, d := range []*LFRCDeque{NewLFRC(), NewLFRC(WithMaxNodes(4))} {
		hotWordGap(t, "NewLFRC",
			unsafe.Pointer(&d.node(d.sl).r), unsafe.Pointer(&d.node(d.sr).l))
	}
}

// TestSentinelSpacerAccounting checks the arena accounting the
// correctness tests rely on: a fresh deque reports exactly its two
// sentinels live, with nothing between them counted.
func TestSentinelSpacerAccounting(t *testing.T) {
	if live := New().Arena().Live(); live != 2 {
		t.Fatalf("New: fresh deque has %d live nodes, want 2", live)
	}
	if live := NewDummy().Arena().Live(); live != 2 {
		t.Fatalf("NewDummy: fresh deque has %d live nodes, want 2", live)
	}
	if live := NewLFRC().Arena().Live(); live != 2 {
		t.Fatalf("NewLFRC: fresh deque has %d live nodes, want 2", live)
	}
}
