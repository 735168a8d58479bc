// Fixture: every way the publish-then-recheck handshake loses its
// recheck — parking straight after the publish, rechecking only after
// the park, dropping the predicate entirely — plus the annotation's own
// failure modes.
package a

type waiter struct {
	wake chan struct{}
	n    int
}

func ready() bool { return false }

// parkNoRecheck blocks with no recheck at all between publish and park.
func (w *waiter) parkNoRecheck() {
	w.n++    //dequevet:publish recheck=ready
	<-w.wake // want `may block here before rechecking ready`
}

// parkLate rechecks only after the park: source order is the protocol.
func (w *waiter) parkLate() {
	w.n++    //dequevet:publish recheck=ready
	<-w.wake // want `may block here before rechecking ready`
	if ready() {
		return
	}
}

// selectPark parks in a default-less select before the recheck.
func (w *waiter) selectPark() {
	w.n++    //dequevet:publish recheck=ready
	select { // want `may block here before rechecking ready`
	case <-w.wake:
	}
}

// sendPark blocks on a channel send before the recheck.
func (w *waiter) sendPark(out chan int) {
	w.n++      //dequevet:publish recheck=ready
	out <- w.n // want `may block here before rechecking ready`
}

// dropped never rechecks the predicate anywhere in the tail.
func (w *waiter) dropped() {
	w.n++ //dequevet:publish recheck=ready // want `never followed by a recheck of ready`
}

// wrongPredicate rechecks something, but not a declared predicate.
func (w *waiter) wrongPredicate() {
	w.n++ //dequevet:publish recheck=ready // want `never followed by a recheck of ready`
	_ = len(w.wake)
}

// malformed annotations are diagnosed, not silently skipped.
func (w *waiter) malformed() {
	w.n++ //dequevet:publish recheckready // want `malformed publish annotation`
}

// floating: the directive governs no statement.
func (w *waiter) floating() {
	//dequevet:publish recheck=ready // want `not attached to a statement`

	_ = w.n
}

//dequevet:publish recheck=ready // want `outside any function body`
var topLevel int
