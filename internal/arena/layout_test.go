package arena

import (
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// Layout regression tests for the per-end lanes, in the style of
// internal/dcas/layout_test.go: padlayout vets the declared layout, and
// these pin the geometry the allocator's disjoint-ends claim rests on.

// TestLaneStride checks that the two lanes sit at least a false-sharing
// range apart, so a left-end Alloc or Free never writes a line a
// right-end one uses.
func TestLaneStride(t *testing.T) {
	var ls lanes
	stride := unsafe.Offsetof(ls.right) - unsafe.Offsetof(ls.left)
	if stride < dcas.FalseSharingRange {
		t.Fatalf("lane stride %d bytes, want ≥ %d", stride, dcas.FalseSharingRange)
	}
	if sz := unsafe.Sizeof(lane{}); sz%dcas.FalseSharingRange != 0 {
		t.Fatalf("lane is %d bytes, not a multiple of %d", sz, dcas.FalseSharingRange)
	}
}

// TestLanesClearOfReadOnlyFields checks that the left lane's words sit a
// false-sharing range past the arena's read-mostly header (capacity,
// block table), which every operation on either end reads.
func TestLanesClearOfReadOnlyFields(t *testing.T) {
	a := New[int](16)
	header := uintptr(unsafe.Pointer(&a.blocks)) + unsafe.Sizeof(a.blocks)
	if gap := uintptr(unsafe.Pointer(&a.lanes.left)) - header; gap < dcas.FalseSharingRange {
		t.Fatalf("left lane %d bytes past the header, want ≥ %d", gap, dcas.FalseSharingRange)
	}
}

// TestLanesCarveFromOppositeEnds checks that fresh slots for the two
// lanes come from opposite ends of the index space, so the slots the two
// ends work with — and the list deques' two sentinels — do not share
// cache lines.
func TestLanesCarveFromOppositeEnds(t *testing.T) {
	a := New[int](64, WithBlockSize(16))
	l, _ := a.Alloc(Left)
	r, _ := a.Alloc(Right)
	if l != 0 || r != uint32(a.Cap()-1) {
		t.Fatalf("first carves: left %d, right %d; want 0 and %d", l, r, a.Cap()-1)
	}
}
