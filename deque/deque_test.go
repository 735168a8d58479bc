package deque

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// implementations returns fresh instances of every Deque[int]
// implementation at a given capacity, keyed by name.
func implementations(capacity int) map[string]Deque[int] {
	return map[string]Deque[int]{
		"Array":      NewArray[int](capacity),
		"List":       NewList[int](WithMaxNodes(capacity * 100)),
		"List/gc":    NewList[int](WithoutNodeReuse(), WithMaxNodes(1<<16)),
		"List/dummy": NewList[int](WithDummyNodes()),
		"List/lfrc":  NewList[int](WithLFRC()),
		"Mutex":      NewMutex[int](capacity),
	}
}

func TestBasicSemantics(t *testing.T) {
	for name, d := range implementations(8) {
		t.Run(name, func(t *testing.T) {
			if _, err := d.PopLeft(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("popLeft on empty: %v", err)
			}
			if _, err := d.PopRight(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("popRight on empty: %v", err)
			}
			// The Section 2.2 example.
			mustPush(t, d.PushRight, 1)
			mustPush(t, d.PushLeft, 2)
			mustPush(t, d.PushRight, 3)
			if v := mustPop(t, d.PopLeft); v != 2 {
				t.Fatalf("popLeft = %d, want 2", v)
			}
			if v := mustPop(t, d.PopLeft); v != 1 {
				t.Fatalf("popLeft = %d, want 1", v)
			}
			if v := mustPop(t, d.PopRight); v != 3 {
				t.Fatalf("popRight = %d, want 3", v)
			}
		})
	}
}

func mustPush(t *testing.T, f func(int) error, v int) {
	t.Helper()
	if err := f(v); err != nil {
		t.Fatalf("push %d: %v", v, err)
	}
}

func mustPop(t *testing.T, f func() (int, error)) int {
	t.Helper()
	v, err := f()
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	return v
}

func TestBoundedFull(t *testing.T) {
	for _, name := range []string{"Array", "Mutex"} {
		t.Run(name, func(t *testing.T) {
			var d Deque[int]
			if name == "Array" {
				d = NewArray[int](3)
			} else {
				d = NewMutex[int](3)
			}
			for i := 1; i <= 3; i++ {
				mustPush(t, d.PushRight, i)
			}
			if err := d.PushRight(4); !errors.Is(err, ErrFull) {
				t.Fatalf("push on full: %v", err)
			}
			if err := d.PushLeft(4); !errors.Is(err, ErrFull) {
				t.Fatalf("pushLeft on full: %v", err)
			}
			// Contents unharmed.
			for i := 1; i <= 3; i++ {
				if v := mustPop(t, d.PopLeft); v != i {
					t.Fatalf("popLeft = %d, want %d", v, i)
				}
			}
		})
	}
}

func TestListArenaExhaustion(t *testing.T) {
	d := NewList[int](WithMaxNodes(4))
	pushed := 0
	for i := 0; i < 10; i++ {
		if err := d.PushRight(i); err == nil {
			pushed++
		} else if !errors.Is(err, ErrFull) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if pushed == 0 || pushed > 4 {
		t.Fatalf("pushed %d items into a 4-node arena", pushed)
	}
	for i := 0; i < pushed; i++ {
		mustPop(t, d.PopLeft)
	}
}

func TestGenericTypes(t *testing.T) {
	// Strings.
	ds := NewList[string]()
	if err := ds.PushRight("hello"); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushLeft("world"); err != nil {
		t.Fatal(err)
	}
	if v, err := ds.PopLeft(); err != nil || v != "world" {
		t.Fatalf("popLeft = (%q, %v)", v, err)
	}
	// Structs with pointers (exercises slot zeroing on free).
	type task struct {
		ID   int
		Data *[]byte
	}
	buf := make([]byte, 8)
	dt := NewArray[task](4)
	if err := dt.PushRight(task{ID: 7, Data: &buf}); err != nil {
		t.Fatal(err)
	}
	got, err := dt.PopRight()
	if err != nil || got.ID != 7 || got.Data != &buf {
		t.Fatalf("PopRight = (%+v, %v)", got, err)
	}
}

// TestCrossImplementationDifferential drives identical random programs
// against every implementation and a plain-slice reference.
func TestCrossImplementationDifferential(t *testing.T) {
	const capacity = 5
	for name, d := range implementations(capacity) {
		t.Run(name, func(t *testing.T) {
			bounded := name == "Array" || name == "Mutex"
			rng := rand.New(rand.NewPCG(3, 14))
			var ref []int
			next := 1
			for step := 0; step < 4000; step++ {
				switch rng.IntN(4) {
				case 0:
					err := d.PushLeft(next)
					if bounded && len(ref) == capacity {
						if !errors.Is(err, ErrFull) {
							t.Fatalf("step %d: pushLeft on full: %v", step, err)
						}
					} else if err != nil {
						t.Fatalf("step %d: pushLeft: %v", step, err)
					} else {
						ref = append([]int{next}, ref...)
					}
					next++
				case 1:
					err := d.PushRight(next)
					if bounded && len(ref) == capacity {
						if !errors.Is(err, ErrFull) {
							t.Fatalf("step %d: pushRight on full: %v", step, err)
						}
					} else if err != nil {
						t.Fatalf("step %d: pushRight: %v", step, err)
					} else {
						ref = append(ref, next)
					}
					next++
				case 2:
					v, err := d.PopLeft()
					if len(ref) == 0 {
						if !errors.Is(err, ErrEmpty) {
							t.Fatalf("step %d: popLeft on empty: %v", step, err)
						}
					} else if err != nil || v != ref[0] {
						t.Fatalf("step %d: popLeft = (%d, %v), want %d", step, v, err, ref[0])
					} else {
						ref = ref[1:]
					}
				case 3:
					v, err := d.PopRight()
					if len(ref) == 0 {
						if !errors.Is(err, ErrEmpty) {
							t.Fatalf("step %d: popRight on empty: %v", step, err)
						}
					} else if err != nil || v != ref[len(ref)-1] {
						t.Fatalf("step %d: popRight = (%d, %v), want %d", step, v, err, ref[len(ref)-1])
					} else {
						ref = ref[:len(ref)-1]
					}
				}
			}
		})
	}
}

// TestConcurrentConservation checks end-to-end value conservation through
// the public API, including the boxing layer's slot recycling.
func TestConcurrentConservation(t *testing.T) {
	for name, d := range implementations(16) {
		t.Run(name, func(t *testing.T) {
			const (
				pushers = 3
				poppers = 3
				perG    = 2000
				total   = pushers * perG
			)
			var push, pop sync.WaitGroup
			done := make(chan struct{})
			popped := make([][]int, poppers)
			for g := 0; g < pushers; g++ {
				push.Add(1)
				go func(g int) {
					defer push.Done()
					for i := 0; i < perG; i++ {
						v := g*perG + i + 1
						for {
							var err error
							if (g+i)%2 == 0 {
								err = d.PushRight(v)
							} else {
								err = d.PushLeft(v)
							}
							if err == nil {
								break
							}
							runtime.Gosched()
						}
					}
				}(g)
			}
			for g := 0; g < poppers; g++ {
				pop.Add(1)
				go func(g int) {
					defer pop.Done()
					for {
						var v int
						var err error
						if g%2 == 0 {
							v, err = d.PopLeft()
						} else {
							v, err = d.PopRight()
						}
						if err == nil {
							popped[g] = append(popped[g], v)
						} else {
							select {
							case <-done:
								return
							default:
								runtime.Gosched()
							}
						}
					}
				}(g)
			}
			push.Wait()
			close(done)
			pop.Wait()
			var rest []int
			for {
				v, err := d.PopLeft()
				if err != nil {
					break
				}
				rest = append(rest, v)
			}
			seen := make(map[int]int, total)
			for _, batch := range popped {
				for _, v := range batch {
					seen[v]++
				}
			}
			for _, v := range rest {
				seen[v]++
			}
			if len(seen) != total {
				t.Fatalf("distinct values: %d, want %d", len(seen), total)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("value %d seen %d times", v, c)
				}
			}
		})
	}
}

func TestItemsSnapshot(t *testing.T) {
	a := NewArray[string](4)
	a.PushRight("b")
	a.PushLeft("a")
	a.PushRight("c")
	items, err := a.Items()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(items) != "[a b c]" {
		t.Fatalf("items = %v", items)
	}
	l := NewList[string]()
	l.PushRight("y")
	l.PushLeft("x")
	items, err = l.Items()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(items) != "[x y]" {
		t.Fatalf("items = %v", items)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewArray[int](0) },
		func() { NewMutex[int](0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero-capacity constructor did not panic")
				}
			}()
			f()
		}()
	}
}
