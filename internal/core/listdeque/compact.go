package listdeque

import "dcasdeque/internal/arena"

// Compact completes any pending physical deletions on both ends.  The
// paper's pops leave the splice of a logically deleted node to the next
// operation on that side (Figure 17 / footnote 6); until then the node —
// and, in the dummy representation, its delete-bit dummy — stays live in
// the arena.  Compact runs both delete routines to push that deferred
// reclamation through now, which is the only storage the list deques can
// give back on demand: it is the "compaction" step a memory-bounded
// wrapper attempts before failing a push with ErrMemoryBound.  Safe to
// call concurrently with deque operations; a no-op when nothing is
// pending.
func (d *Deque) Compact() {
	d.deleteRight()
	d.deleteLeft()
}

// Compact completes pending physical deletions (see Deque.Compact); for
// the dummy representation this also frees the retired delete-bit
// dummies.
func (d *DummyDeque) Compact() {
	d.deleteRight()
	d.deleteLeft()
}

// Compact completes pending physical deletions (see Deque.Compact); under
// LFRC the splice drops the structure's references, so nodes whose counts
// reach zero are reclaimed before Compact returns.
func (d *LFRCDeque) Compact() {
	d.deleteRight()
	d.deleteLeft()
}

// Occupancy returns the node arena's allocation ledger.
func (d *Deque) Occupancy() arena.Occupancy { return d.ar.Occupancy() }

// Occupancy returns the node arena's allocation ledger (nodes and
// delete-bit dummies share one arena).
func (d *DummyDeque) Occupancy() arena.Occupancy { return d.ar.Occupancy() }

// Occupancy returns the reference-counted node arena's allocation ledger.
func (d *LFRCDeque) Occupancy() arena.Occupancy { return d.ar.Occupancy() }

// Ledger returns the node arena's ledger without the structural audit
// Occupancy runs, in O(1).
func (d *Deque) Ledger() arena.Occupancy { return d.ar.Ledger() }

// Ledger returns the node arena's ledger (nodes and dummies), unaudited.
func (d *DummyDeque) Ledger() arena.Occupancy { return d.ar.Ledger() }

// Ledger returns the reference-counted node arena's ledger, unaudited.
func (d *LFRCDeque) Ledger() arena.Occupancy { return d.ar.Ledger() }
