package dcas

import (
	"testing"
	"unsafe"
)

// Layout regression tests: the contention engineering of this package
// depends on compile-time geometry that an innocent-looking refactor
// (reordering fields, widening a type) could silently destroy.  These
// tests pin it.

// TestLocLayout pins the Loc geometry: the value word leads (the hot load
// path dereferences the Loc's own address), and the struct stays compact
// because aggregates embed many Locs and pad at their own level.
func TestLocLayout(t *testing.T) {
	var l Loc
	if off := unsafe.Offsetof(l.v); off != 0 {
		t.Fatalf("Loc.v at offset %d, want 0 (value word must lead)", off)
	}
	if sz := unsafe.Sizeof(l); sz > 32 {
		t.Fatalf("Loc is %d bytes; it must stay compact (≤ 32) — pad with PaddedLoc, not inside Loc", sz)
	}
}

// TestPaddedLocLayout checks that PaddedLoc fills an integral number of
// false-sharing ranges, so neighbouring elements of a []PaddedLoc can
// never place their hot words within one range of each other.
func TestPaddedLocLayout(t *testing.T) {
	sz := unsafe.Sizeof(PaddedLoc{})
	if sz%FalseSharingRange != 0 {
		t.Fatalf("PaddedLoc is %d bytes, not a multiple of %d", sz, FalseSharingRange)
	}
	if sz < unsafe.Sizeof(Loc{}) {
		t.Fatalf("PaddedLoc (%d bytes) smaller than Loc (%d bytes)", sz, unsafe.Sizeof(Loc{}))
	}
	// Adjacent elements' value words must land on distinct cache lines.
	s := make([]PaddedLoc, 4)
	for i := 0; i < len(s)-1; i++ {
		a := CacheLineOf(unsafe.Pointer(&s[i].Loc))
		b := CacheLineOf(unsafe.Pointer(&s[i+1].Loc))
		if a == b {
			t.Fatalf("padded cells %d and %d share cache line %d", i, i+1, a)
		}
	}
}

// TestCacheLinePadSize checks the spacer covers a full false-sharing range.
func TestCacheLinePadSize(t *testing.T) {
	if sz := unsafe.Sizeof(CacheLinePad{}); sz != FalseSharingRange {
		t.Fatalf("CacheLinePad is %d bytes, want %d", sz, FalseSharingRange)
	}
}

// TestCacheLineOf sanity-checks the line-number helper the layout tests
// in the deque packages rely on.
func TestCacheLineOf(t *testing.T) {
	var buf [3 * CacheLineBytes]byte
	base := CacheLineOf(unsafe.Pointer(&buf[0]))
	far := CacheLineOf(unsafe.Pointer(&buf[2*CacheLineBytes]))
	if far-base != 2 {
		t.Fatalf("addresses %d bytes apart report %d lines apart, want 2",
			2*CacheLineBytes, far-base)
	}
}
