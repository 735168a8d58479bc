package model

import (
	"strings"
	"testing"
)

// ownerOps enumerates the operations the Chase–Lev owner may run.
func ownerOps(base uint64) []OpSpec {
	return []OpSpec{
		{Kind: PushRight, Arg: base},
		{Kind: PopRight},
	}
}

// thiefProgs enumerates the thief programs: one steal, and two in a row
// (the second starting from whatever the owner and the first left).
func thiefProgs() [][]OpSpec {
	return [][]OpSpec{
		{{Kind: PopLeft}},
		{{Kind: PopLeft}, {Kind: PopLeft}},
	}
}

// TestChaseLevOwnerThiefPairs checks every owner-op/thief-program pair
// over every small initial fill, with the solo-termination check: the
// one-element race and the owner's plain take are exhaustively
// interleaved against the full-granularity thief.
func TestChaseLevOwnerThiefPairs(t *testing.T) {
	totalStates := 0
	for fill := 0; fill <= 4; fill++ {
		var initial []uint64
		for i := 0; i < fill; i++ {
			initial = append(initial, uint64(100+i))
		}
		for _, oop := range ownerOps(11) {
			for _, tp := range thiefProgs() {
				s := NewChaseLevSys(initial, [][]OpSpec{{oop}, tp})
				rep := mustExplore(t, s, Options{CheckSolo: true})
				totalStates += rep.States
				if rep.Terminals == 0 {
					t.Fatalf("fill=%d %v/%v: no terminal state", fill, oop, tp)
				}
			}
		}
	}
	t.Logf("chaselev owner/thief pairs: %d states total", totalStates)
}

// TestChaseLevTwoThieves checks the owner against two full-granularity
// thieves: claim-vs-claim CAS races for one index, and both racing the
// owner's last-item pop.
func TestChaseLevTwoThieves(t *testing.T) {
	total := 0
	for _, fill := range []int{0, 1, 2, 3} {
		var initial []uint64
		for i := 0; i < fill; i++ {
			initial = append(initial, uint64(100+i))
		}
		for _, oop := range ownerOps(11) {
			for _, t1 := range thiefProgs() {
				for _, t2 := range thiefProgs() {
					s := NewChaseLevSys(initial, [][]OpSpec{{oop}, t1, t2})
					rep := mustExplore(t, s, Options{})
					total += rep.States
				}
			}
		}
	}
	t.Logf("chaselev two-thief: %d states total", total)
}

// TestChaseLevOwnerPrograms runs multi-op owner programs against two
// thieves: push/pop sequences drive the deque through empty, the last
// item and the plain-take region while steals are in flight — the
// stale-claim interleavings where a popped index is re-pushed under a
// thief that read it.
func TestChaseLevOwnerPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	progs := [][]OpSpec{
		{{Kind: PushRight, Arg: 11}, {Kind: PopRight}},
		{{Kind: PopRight}, {Kind: PushRight, Arg: 12}},
		{{Kind: PopRight}, {Kind: PopRight}},
		{{Kind: PushRight, Arg: 13}, {Kind: PushRight, Arg: 14}},
	}
	total := 0
	for _, fill := range []int{0, 1, 4} {
		var initial []uint64
		for i := 0; i < fill; i++ {
			initial = append(initial, uint64(100+i))
		}
		for _, op := range progs {
			for _, t1 := range thiefProgs() {
				for _, t2 := range thiefProgs() {
					s := NewChaseLevSys(initial, [][]OpSpec{op, t1, t2})
					rep := mustExplore(t, s, Options{})
					total += rep.States
				}
			}
		}
	}
	t.Logf("chaselev owner programs: %d states total", total)
}

// TestChaseLevOneElementRace pins the paper's signature scenario: one
// item, the owner popping it while a thief steals.  Exactly one side
// may win; the Events map must show both outcomes reachable.
func TestChaseLevOneElementRace(t *testing.T) {
	s := NewChaseLevSys([]uint64{100}, [][]OpSpec{{{Kind: PopRight}}, {{Kind: PopLeft}}})
	rep := mustExplore(t, s, Options{CheckSolo: true})
	ownerWins, thiefWins := 0, 0
	for label, n := range rep.Events {
		switch {
		case strings.Contains(label, "last-item CAS"):
			ownerWins += n
		case strings.Contains(label, "steal-CAS ok"):
			thiefWins += n
		}
	}
	if ownerWins == 0 || thiefWins == 0 {
		t.Fatalf("one-element race not two-sided (owner wins %d, thief wins %d):\n%v",
			ownerWins, thiefWins, rep.Events)
	}
}
