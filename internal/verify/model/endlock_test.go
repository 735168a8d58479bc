package model

import (
	"strings"
	"testing"
)

// endLockBounds runs fn over today's array bounds: capacities 1–3 and
// initial fills 0–2.
func endLockBounds(fn func(n int, initial []uint64)) {
	for _, n := range []int{1, 2, 3} {
		for fill := 0; fill <= n && fill <= 2; fill++ {
			var initial []uint64
			for i := 0; i < fill; i++ {
				initial = append(initial, uint64(100+i))
			}
			fn(n, initial)
		}
	}
}

// TestArrayEndLockPairsExhaustive checks every 2-thread pair of single
// operations with each DCAS expanded into EndLock's steps, for all four
// optimization variants, with the deadlock-freedom / solo-termination
// check on.
func TestArrayEndLockPairsExhaustive(t *testing.T) {
	variants := []struct {
		name            string
		strong, recheck bool
	}{
		{"strong+recheck", true, true},
		{"strong", true, false},
		{"weak+recheck", false, true},
		{"weak", false, false},
	}
	for _, v := range variants {
		total, waits := 0, 0
		endLockBounds(func(n int, initial []uint64) {
			for _, op1 := range allOps(11) {
				for _, op2 := range allOps(21) {
					s := NewArraySysEndLock(n, initial, [][]OpSpec{{op1}, {op2}}, v.strong, v.recheck)
					rep, viol := Explore(s, Options{CheckSolo: true})
					if viol != nil {
						t.Fatalf("%s n=%d fill=%d %v/%v: %v", v.name, n, len(initial), op1, op2, viol)
					}
					if rep.Terminals == 0 {
						t.Fatalf("%s n=%d fill=%d %v/%v: no terminal state", v.name, n, len(initial), op1, op2)
					}
					total += rep.States
					waits += countEvents(rep, "wait on marked")
				}
			}
		})
		if waits == 0 {
			t.Fatalf("%s: no schedule waited on a mark", v.name)
		}
		t.Logf("%s: %d states, %d mark waits", v.name, total, waits)
	}
}

// TestArrayEndLockTriples checks every 3-thread combination of single
// operations on a capacity-2 deque holding one item, as printed (strong
// DCAS, recheck): enough threads that every boundary race is reachable
// and a third thread can wait on a mark.  The full 3-thread bound
// (capacities 1–3, fills 0–2) is `dequemodel -algo array -dcas endlock
// -threads 3`.
func TestArrayEndLockTriples(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	total := 0
	for _, op1 := range allOps(11) {
		for _, op2 := range allOps(21) {
			for _, op3 := range allOps(31) {
				s := NewArraySysEndLock(2, []uint64{100}, [][]OpSpec{{op1}, {op2}, {op3}}, true, true)
				total += mustExplore(t, s, Options{CheckSolo: true}).States
			}
		}
	}
	t.Logf("EndLock triples: %d states", total)
}

// TestArrayEndLockTwoOpPrograms checks 2-thread programs of two
// operations each on the expanded DCAS, so a thread's second operation
// can meet a mark its first one, or the other thread, left behind.
func TestArrayEndLockTwoOpPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	progsets := [][]OpSpec{
		{{Kind: PushRight, Arg: 11}, {Kind: PopRight}},
		{{Kind: PushLeft, Arg: 12}, {Kind: PopLeft}},
		{{Kind: PopLeft}, {Kind: PushRight, Arg: 13}},
		{{Kind: PopRight}, {Kind: PopLeft}},
		{{Kind: PushRight, Arg: 14}, {Kind: PushLeft, Arg: 15}},
	}
	total := 0
	for _, n := range []int{2, 3} {
		for _, p1 := range progsets {
			for _, p2 := range progsets {
				p2r := make([]OpSpec, len(p2))
				for i, op := range p2 {
					p2r[i] = op
					if op.Kind == PushLeft || op.Kind == PushRight {
						p2r[i].Arg = op.Arg + 10
					}
				}
				s := NewArraySysEndLock(n, []uint64{100}, [][]OpSpec{p1, p2r}, true, true)
				total += mustExplore(t, s, Options{CheckSolo: true}).States
			}
		}
	}
	t.Logf("EndLock two-op programs: %d states", total)
}

// TestArrayEndLockFig6BothOutcomes re-runs the Figure 6 steal on the
// expanded DCAS: both winners occur, and the loser still detects the
// steal through the view it loads under its mark.
func TestArrayEndLockFig6BothOutcomes(t *testing.T) {
	s := NewArraySysEndLock(3, []uint64{7}, [][]OpSpec{{{Kind: PopLeft}}, {{Kind: PopRight}}}, true, true)
	rep := mustExplore(t, s, Options{CheckSolo: true})
	for _, want := range []string{"popLeft(): pop-DCAS ok", "popRight(): pop-DCAS ok", "empty (steal)"} {
		if countEvents(rep, want) == 0 {
			t.Errorf("outcome %q never observed", want)
		}
	}
}

// TestEndLockSeededBugs certifies the certifier: each seeded EndLock bug
// must be caught by some obligation on the 2-thread pairs.
func TestEndLockSeededBugs(t *testing.T) {
	for _, bug := range []struct {
		name string
		bug  endLockBug
	}{
		{"commit store before the cell CAS", bugCommitFirst},
		{"mark bit leaks into an end read", bugUnmaskedEndRead},
		{"restore skipped after a failed cell CAS", bugSkipRestore},
	} {
		var caught *Violation
		endLockBounds(func(n int, initial []uint64) {
			for _, op1 := range allOps(11) {
				for _, op2 := range allOps(21) {
					if caught != nil {
						return
					}
					s := newArraySys(n, initial, [][]OpSpec{{op1}, {op2}}, true, true, true, bug.bug)
					_, caught = Explore(s, Options{CheckSolo: true})
				}
			}
		})
		if caught == nil {
			t.Errorf("seeded bug %q passed every obligation", bug.name)
			continue
		}
		if strings.Contains(caught.Msg, "state space exceeds") {
			t.Errorf("seeded bug %q: %v", bug.name, caught.Msg)
		}
		t.Logf("%s: %s", bug.name, caught.Msg)
	}
}

func countEvents(rep *Report, substr string) int {
	n := 0
	for label, cnt := range rep.Events {
		if strings.Contains(label, substr) {
			n += cnt
		}
	}
	return n
}
