// Package model is an explicit-state model checker for the two deque
// algorithms, discharging the proof obligations of Section 5 of
// "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000) by exhaustive
// enumeration instead of first-order deduction (the paper used the
// Simplify prover).
//
// The algorithms are transliterated into step machines whose atomic
// actions are exactly the shared-memory accesses of the pseudocode (one
// Read, Write or DCAS per step; DCAS is a single atomic step, as in the
// paper's model where "each such transition is the result of a DCAS
// execution").  The array model can instead expand each DCAS into the
// steps of dcas.EndLock, the array deque's default emulation
// (NewArraySysEndLock), so the emulation is checked rather than assumed
// atomic.  The explorer enumerates every interleaving of every
// thread's steps from a given initial state and checks, at every reachable
// state and transition, the same obligations the paper proves:
//
//   - the representation invariant holds (Figures 18, 24, 25) — checked
//     through each algorithm's Abstract, which fails outside the
//     invariant's domain;
//   - the abstraction function changes only at linearization points, and
//     each linearization corresponds to a correct sequential transition
//     with the correct return value (the ProperTransition obligations of
//     Figures 21–23 and 26–29);
//   - optionally, a solo-termination check: from every reachable state,
//     any single thread scheduled alone completes its operation within a
//     bounded number of steps — an operational counterpart of the
//     non-blocking property (Theorems 3.1 and 4.1): an operation can be
//     delayed only by interference from other operations' steps.  Where
//     an expanded, blocking DCAS makes a thread wait on a lock another
//     thread holds, deadlock freedom replaces it: the holder, run alone,
//     releases the lock within the bound without waiting itself;
//   - for an expanded DCAS, the emulation's own obligations at every
//     state (the optional Fault method).
//
// State spaces are bounded (few threads, few operations, small deques) but
// coverage within the bound is exhaustive, including every adversarial
// schedule such as the Figure 6 steal and the Figure 16 two-sided delete
// contention.
package model

import (
	"fmt"
	"strings"

	"dcasdeque/internal/spec"
)

// OpKind identifies one of the four deque operations.
type OpKind uint8

// The four deque operations of Section 2.2.
const (
	PushLeft OpKind = iota
	PushRight
	PopLeft
	PopRight
)

// String returns the paper's name for the operation.
func (k OpKind) String() string {
	switch k {
	case PushLeft:
		return "pushLeft"
	case PushRight:
		return "pushRight"
	case PopLeft:
		return "popLeft"
	case PopRight:
		return "popRight"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// OpSpec is one operation in a thread's program.
type OpSpec struct {
	Kind OpKind
	Arg  uint64 // pushed value; ignored for pops
}

// String renders the op as pushRight(5) / popLeft().
func (o OpSpec) String() string {
	switch o.Kind {
	case PushLeft, PushRight:
		return fmt.Sprintf("%v(%d)", o.Kind, o.Arg)
	default:
		return fmt.Sprintf("%v()", o.Kind)
	}
}

// Lin is a linearization record emitted by a step: the operation took
// effect atomically at this step (or, if Retro is set, at the thread's
// earlier read of the sentinel pointer — the popRight line 3 case of
// Figure 28, where the return decision is made after the linearization
// point).
type Lin struct {
	Thread int
	Op     OpSpec
	Val    uint64 // value returned by an Okay pop
	Res    spec.Result
	// Retro marks the sentL/sentR empty return, linearized at the earlier
	// sentinel-pointer read; RetroOK records whether the abstract deque
	// was empty at that read.
	Retro   bool
	RetroOK bool
}

// Sys is a checkable system: simulated shared memory plus thread step
// machines for one of the two algorithms.
type Sys interface {
	// Clone returns a deep copy.
	Clone() Sys
	// Key returns a canonical encoding of the complete state.
	Key() string
	// NumThreads reports the number of threads.
	NumThreads() int
	// Done reports whether thread i has finished its program.
	Done(i int) bool
	// Step advances thread i by one atomic action.  absEmpty reports
	// whether the abstraction is currently empty (consumed by the
	// retroactive sentinel-read linearization).  It returns a short label
	// (for traces and event counting) and an optional linearization.
	Step(i int, absEmpty bool) (label string, lin *Lin)
	// Abstract applies the representation invariant and abstraction
	// function to the current shared memory.
	Abstract() ([]uint64, error)
	// Capacity returns the abstract deque capacity (spec.Unbounded for the
	// list algorithm).
	Capacity() int
	// SoloBound is the maximum number of solo steps a thread may need to
	// finish its current operation without interference.
	SoloBound() int
}

// Report summarizes an exploration.
type Report struct {
	States      int            // distinct states visited
	Transitions int            // transitions executed
	Linearized  int            // linearization points checked
	Terminals   int            // states with all threads done
	Events      map[string]int // step-label counts (e.g. both Figure 16 outcomes)
}

// Violation describes a failed proof obligation with the interleaving that
// reached it.
type Violation struct {
	Msg   string
	Trace []string
}

// Error formats the violation with its full schedule.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s\n  schedule:\n    %s", v.Msg, strings.Join(v.Trace, "\n    "))
}

// Options configures an exploration.
type Options struct {
	// MaxStates aborts the exploration if exceeded (0 = 5,000,000).
	MaxStates int
	// CheckSolo enables the solo-termination (non-blocking) check at every
	// visited state.
	CheckSolo bool
}

// Explore exhaustively enumerates all interleavings from init, checking
// every proof obligation.  It returns a report, or a violation describing
// the first failed obligation and the schedule reaching it.
func Explore(init Sys, opts Options) (*Report, *Violation) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}
	rep := &Report{Events: map[string]int{}}
	visited := map[string]bool{}

	absInit, err := init.Abstract()
	if err != nil {
		return rep, &Violation{Msg: fmt.Sprintf("initial state violates RepInv: %v", err)}
	}
	_ = absInit

	type frame struct {
		sys   Sys
		trace []string
	}
	stack := []frame{{sys: init, trace: nil}}
	visited[init.Key()] = true
	rep.States = 1

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		abs0, err := f.sys.Abstract()
		if err != nil {
			return rep, &Violation{Msg: fmt.Sprintf("RepInv violated: %v", err), Trace: f.trace}
		}

		if opts.CheckSolo {
			if v := checkSolo(f.sys, f.trace); v != nil {
				return rep, v
			}
		}

		anyRunnable := false
		for i := 0; i < f.sys.NumThreads(); i++ {
			if f.sys.Done(i) {
				continue
			}
			anyRunnable = true
			ns := f.sys.Clone()
			label, lin := ns.Step(i, len(abs0) == 0)
			rep.Transitions++
			rep.Events[label]++
			trace := append(append([]string(nil), f.trace...),
				fmt.Sprintf("T%d: %s", i, label))

			abs1, err := ns.Abstract()
			if err != nil {
				return rep, &Violation{Msg: fmt.Sprintf("RepInv violated after step: %v", err), Trace: trace}
			}
			if f, ok := ns.(faulter); ok {
				if err := f.Fault(); err != nil {
					return rep, &Violation{Msg: fmt.Sprintf("DCAS emulation obligation violated: %v", err), Trace: trace}
				}
			}

			if lin == nil {
				if !equalSeq(abs0, abs1) {
					return rep, &Violation{
						Msg:   fmt.Sprintf("abstraction changed at non-linearization step: %v -> %v", abs0, abs1),
						Trace: trace,
					}
				}
			} else {
				rep.Linearized++
				if v := checkLin(lin, abs0, abs1, f.sys.Capacity(), trace); v != nil {
					return rep, v
				}
			}

			k := ns.Key()
			if !visited[k] {
				visited[k] = true
				rep.States++
				if rep.States > maxStates {
					return rep, &Violation{Msg: fmt.Sprintf("state space exceeds %d states", maxStates), Trace: trace}
				}
				stack = append(stack, frame{sys: ns, trace: trace})
			}
		}
		if !anyRunnable {
			rep.Terminals++
		}
	}
	return rep, nil
}

// checkLin verifies that a linearization corresponds to a correct
// sequential transition of the abstract deque (the ProperTransition
// obligations).
func checkLin(lin *Lin, abs0, abs1 []uint64, capacity int, trace []string) *Violation {
	if lin.Retro {
		// Linearized at the earlier sentinel read; the obligation is that
		// the deque was empty there, and that this step changed nothing.
		if !lin.RetroOK {
			return &Violation{
				Msg:   fmt.Sprintf("T%d %v returned empty but abstraction was non-empty at its linearization read", lin.Thread, lin.Op),
				Trace: trace,
			}
		}
		if lin.Res != spec.Empty {
			return &Violation{Msg: "retro linearization with non-empty result", Trace: trace}
		}
		if !equalSeq(abs0, abs1) {
			return &Violation{Msg: "retro-linearized step changed the abstraction", Trace: trace}
		}
		return nil
	}
	ref := spec.FromSlice(abs0, capacity)
	var wantVal uint64
	var wantRes spec.Result
	switch lin.Op.Kind {
	case PushLeft:
		wantRes = ref.PushLeft(lin.Op.Arg)
	case PushRight:
		wantRes = ref.PushRight(lin.Op.Arg)
	case PopLeft:
		wantVal, wantRes = ref.PopLeft()
	case PopRight:
		wantVal, wantRes = ref.PopRight()
	}
	if lin.Res != wantRes {
		return &Violation{
			Msg: fmt.Sprintf("T%d %v linearized with result %v; sequential spec on %v gives %v",
				lin.Thread, lin.Op, lin.Res, abs0, wantRes),
			Trace: trace,
		}
	}
	if lin.Res == spec.Okay && (lin.Op.Kind == PopLeft || lin.Op.Kind == PopRight) && lin.Val != wantVal {
		return &Violation{
			Msg: fmt.Sprintf("T%d %v returned %d; sequential spec on %v gives %d",
				lin.Thread, lin.Op, lin.Val, abs0, wantVal),
			Trace: trace,
		}
	}
	if !equalSeq(ref.Items(), abs1) {
		return &Violation{
			Msg: fmt.Sprintf("T%d %v: post-state abstraction %v, sequential spec gives %v",
				lin.Thread, lin.Op, abs1, ref.Items()),
			Trace: trace,
		}
	}
	return nil
}

// faulter is implemented by systems whose DCAS is expanded into a
// software emulation's steps: Fault reports the first of the emulation's
// own obligations (Figure 1's contract as the emulation meets it, and its
// lock invariant) that the state breaks, nil while all hold.
type faulter interface {
	Fault() error
}

// waiter is implemented by systems whose DCAS emulation blocks: WaitsOn
// reports whether thread i's next step waits on a lock another thread
// holds, and which thread that is (-1: none does).
type waiter interface {
	WaitsOn(i int) (holder int, waits bool)
}

// checkSolo verifies the non-blocking property operationally: every
// unfinished thread, run alone from this state, completes its current
// operation within the system's solo bound.  Where the thread waits on a
// lock another thread holds (a blocking DCAS emulation), deadlock freedom
// replaces solo termination: the holder, run alone, must release the lock
// within the bound, and the thread then continues alone.
func checkSolo(s Sys, trace []string) *Violation {
	for i := 0; i < s.NumThreads(); i++ {
		if s.Done(i) {
			continue
		}
		solo := s.Clone()
		opsBefore := soloOpsRemaining(solo, i)
		finished := false
		for step := 0; step < solo.SoloBound(); step++ {
			if v := release(solo, i, trace); v != nil {
				return v
			}
			abs0, _ := solo.Abstract()
			solo.Step(i, len(abs0) == 0)
			if soloOpsRemaining(solo, i) < opsBefore || solo.Done(i) {
				finished = true
				break
			}
		}
		if !finished {
			return &Violation{
				Msg:   fmt.Sprintf("non-blocking violation: thread %d running alone does not finish its operation within %d steps", i, s.SoloBound()),
				Trace: trace,
			}
		}
	}
	return nil
}

// release runs the holder of the lock thread i waits on, alone, until i
// no longer waits.  It reports a deadlock when nobody holds the lock, when
// the holder itself waits, or when it keeps the lock past the solo bound.
func release(s Sys, i int, trace []string) *Violation {
	w, ok := s.(waiter)
	if !ok {
		return nil
	}
	for step := 0; ; step++ {
		h, waits := w.WaitsOn(i)
		switch {
		case !waits:
			return nil
		case h < 0 || h == i || s.Done(h):
			return &Violation{Msg: fmt.Sprintf("deadlock: thread %d waits on a lock no other thread holds", i), Trace: trace}
		case step == s.SoloBound():
			return &Violation{Msg: fmt.Sprintf("deadlock: thread %d holds the lock thread %d waits on for %d steps", h, i, step), Trace: trace}
		}
		if _, hw := w.WaitsOn(h); hw {
			return &Violation{Msg: fmt.Sprintf("deadlock: thread %d waits while holding the lock thread %d waits on", h, i), Trace: trace}
		}
		abs0, _ := s.Abstract()
		s.Step(h, len(abs0) == 0)
	}
}

// soloCounter lets checkSolo observe per-thread op progress.
type soloCounter interface {
	OpsRemaining(i int) int
}

func soloOpsRemaining(s Sys, i int) int {
	if sc, ok := s.(soloCounter); ok {
		return sc.OpsRemaining(i)
	}
	if s.Done(i) {
		return 0
	}
	return 1
}

func equalSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
