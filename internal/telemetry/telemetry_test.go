package telemetry

import (
	"sync"
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// apart fails t unless the counter blocks at a and b start at least a
// false-sharing range apart, so their leading words never meet in a line.
func apart(t *testing.T, what string, a, b unsafe.Pointer) {
	t.Helper()
	if d := uintptr(b) - uintptr(a); d < dcas.FalseSharingRange {
		t.Fatalf("%s: counter blocks %d bytes apart, want ≥ %d", what, d, dcas.FalseSharingRange)
	}
}

// TestRowLayout pins the one cache geometry every counter set relies
// on: a row fills whole false-sharing ranges and holds its counters, so
// rows adjacent in a shard, a scheduler's or server's slice or the DCAS
// lanes never bring two counter blocks within one range.  The shard,
// scheduler and DCAS placements have their own tests (TestShardLayout,
// TestSchedBlockPadding, and TestAttrLaneLayout in internal/dcas); the
// server's tenant slice is checked here.
func TestRowLayout(t *testing.T) {
	if sz := unsafe.Sizeof(row{}); sz%dcas.FalseSharingRange != 0 {
		t.Fatalf("row is %d bytes, not a multiple of %d", sz, dcas.FalseSharingRange)
	}
	var r row
	if end := unsafe.Sizeof(r.c); end > unsafe.Sizeof(r) {
		t.Fatalf("row counters (%d bytes) overrun the row (%d bytes)", end, unsafe.Sizeof(r))
	}
	sv := NewServeSink([]string{"a", "b"})
	apart(t, "tenant rows", unsafe.Pointer(&sv.rows[0]), unsafe.Pointer(&sv.rows[1]))
}

// TestShardLayout pins the cache geometry the sink promises: the three
// counter rows of a shard sit in disjoint false-sharing ranges, and
// adjacent shards in the slice do not bring two rows back together.
// padlayout vets the shard's rows at compile time; the slice is covered
// only here.
func TestShardLayout(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%dcas.FalseSharingRange != 0 {
		t.Fatalf("shard size %d is not a multiple of %d", sz, dcas.FalseSharingRange)
	}
	s := NewSink()
	s.shards = make([]shard, 2)
	apart(t, "left/right", unsafe.Pointer(&s.shards[0].left), unsafe.Pointer(&s.shards[0].right))
	apart(t, "right/ref", unsafe.Pointer(&s.shards[0].right), unsafe.Pointer(&s.shards[0].ref))
	apart(t, "shard 0 ref/shard 1 left", unsafe.Pointer(&s.shards[0].ref), unsafe.Pointer(&s.shards[1].left))
}

func TestSinkShards(t *testing.T) {
	for _, c := range []struct{ procs, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {12, 16}, {64, 16},
	} {
		if got := sinkShards(c.procs); got != c.want {
			t.Errorf("sinkShards(%d) = %d, want %d", c.procs, got, c.want)
		}
		if got := sinkShards(c.procs); got&(got-1) != 0 {
			t.Errorf("sinkShards(%d) = %d, not a power of two", c.procs, got)
		}
	}
}

func TestSinkCounters(t *testing.T) {
	s := NewSink()
	s.Op(Left, Pushes, 0)
	s.Op(Left, Pushes, 3)
	s.Op(Right, Pops, 1)
	s.Op(Right, EmptyHits, 0)
	s.Op(Left, FullHits, 2)
	s.Add(Right, PhysicalDeletes, 2)
	s.Add(Right, LogicalDeletes, 1)
	s.RefInc()
	s.RefInc()
	s.RefDec()
	s.RefFree()

	sn := s.Snapshot()
	var want Snapshot
	want.Ends[Left][Pushes], want.Ends[Left][FullHits], want.Ends[Left][Retries] = 2, 1, 5
	r := &want.Ends[Right]
	r[Pops], r[EmptyHits], r[Retries], r[LogicalDeletes], r[PhysicalDeletes] = 1, 1, 1, 1, 2
	want.Ref[RefIncs], want.Ref[RefDecs], want.Ref[RefFrees] = 2, 1, 1
	if sn != want {
		t.Fatalf("Snapshot = %+v, want %+v", sn, want)
	}

	// A failure visible before its attempt (loads tear under concurrent
	// DCASes) must clamp Successes at zero, not wrap it.
	s.dcas.lanes[1].c[DCASFailures].Add(10)
	if got := s.Snapshot().DCAS; got[DCASFailures] <= got[DCASAttempts] || got[DCASSuccesses] != 0 {
		t.Fatalf("DCAS counts with failures > attempts = %v, want Successes 0", got)
	}
}

// TestSinkConcurrent verifies no recorded operation is lost under
// concurrent recording from many goroutines (the shard function may
// distribute them anywhere, but the sum must be exact).
func TestSinkConcurrent(t *testing.T) {
	s := NewSink()
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			end := End(w % NumEnds)
			for i := 0; i < per; i++ {
				s.Op(end, Pushes, 1)
			}
		}(w)
	}
	wg.Wait()
	l, r := s.Snapshot().Ends[Left], s.Snapshot().Ends[Right]
	if total := l[Pushes] + r[Pushes]; total != workers*per {
		t.Fatalf("recorded %d pushes, want %d", total, workers*per)
	}
	if retries := l[Retries] + r[Retries]; retries != workers*per {
		t.Fatalf("recorded %d retries, want %d", retries, workers*per)
	}
	if l[Pushes] != workers/2*per || r[Pushes] != workers/2*per {
		t.Fatalf("per-end split %d/%d, want %d each", l[Pushes], r[Pushes], workers/2*per)
	}
}

// TestCounterAndEndNames: every names table covers its enum exactly,
// with distinct names, and fits one row.
func TestCounterAndEndNames(t *testing.T) {
	for _, tc := range []struct {
		what  string
		names []string
		n     int
	}{
		{"end", EndNames, NumEnds},
		{"counter", CounterNames, int(NumCounters)},
		{"ref", RefNames, RefFrees + 1},
		{"dcas", DCASNames, DCASSuccesses + 1},
		{"sched", SchedCounterNames, int(NumSchedCounters)},
		{"serve", ServeCounterNames, int(NumServeCounters)},
	} {
		if len(tc.names) != tc.n || tc.n > rowWidth {
			t.Fatalf("%s names %q: %d entries for %d values (row width %d)", tc.what, tc.names, len(tc.names), tc.n, rowWidth)
		}
		seen := map[string]bool{}
		for _, n := range tc.names {
			if n == "" || seen[n] {
				t.Fatalf("%s names %q: empty or duplicate %q", tc.what, tc.names, n)
			}
			seen[n] = true
		}
	}
	if EndNames[Left] != "left" || EndNames[Right] != "right" {
		t.Fatalf("end names = %q", EndNames)
	}
}
