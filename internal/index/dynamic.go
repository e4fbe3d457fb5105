package index

import (
	"fmt"
	"slices"
	"sync"

	"movingdb/internal/geom"
)

// Snapshot is an immutable ladder of bulk-built rungs, largest first:
// the static STR tree made incrementally maintainable by the logarithmic
// method. Fold adds entries by replacement, so a snapshot never changes
// once made and is safe to search without any lock; epoch-pinned
// readers hold one for their whole lifetime. Its owner decides when to
// fold (the ingest store folds its sealed chunks 64 at a time) and
// serialises its own folds. Search is a union over the O(log n) rungs;
// ingest is time-ordered, so each rung is a time slab and narrow-period
// queries reject whole rungs at the root. The zero value is an empty,
// searchable snapshot.
type Snapshot struct {
	rungs []*RTree
}

// Fold returns s with es added and reports whether it merged at least
// one existing rung. es and every trailing rung smaller than twice the
// running total are rebuilt into one rung (a binary counter's carry), so
// an entry is rebuilt O(log n) times over its life and no fold rebuilds
// history it does not have to. es is copied, not retained; s is left as
// it was. Folding nothing returns s.
func (s Snapshot) Fold(es []Entry) (Snapshot, bool) {
	if len(es) == 0 {
		return s, false
	}
	total, keep := len(es), len(s.rungs)
	for keep > 0 && s.rungs[keep-1].Len() < 2*total {
		keep--
		total += s.rungs[keep].Len()
	}
	all := make([]Entry, 0, total)
	for _, r := range s.rungs[keep:] {
		all = append(all, r.entries...)
	}
	all = append(all, es...)
	merged := keep < len(s.rungs)
	return Snapshot{rungs: append(slices.Clip(s.rungs[:keep]), Build(all))}, merged
}

// WithRung returns s with r searched as one more rung. r is shared, not
// copied, and s is left as it was; an empty r adds nothing, so every
// rung a snapshot searches has a root. The ingest store adds each
// epoch's unfolded chunks this way: entries rebuilt on every publish,
// outside the ladder's shape.
func (s Snapshot) WithRung(r *RTree) Snapshot {
	if r.Len() > 0 {
		s.rungs = append(slices.Clip(s.rungs), r)
	}
	return s
}

// Search appends to out the IDs of all entries of every rung whose cubes
// intersect q, and returns the number of nodes visited. Lock-free: the
// snapshot's data is immutable. An ID comes back once per matching
// entry, so one the caller indexed twice can come back twice; the ingest
// store indexes each chunk of units once. The appended IDs come back in
// no particular order: the callers dedupe and order by themselves
// (ingest.Epoch.Window by object slot, the live registry by subscription
// id), so a sort here would be paid for and thrown away.
func (s Snapshot) Search(q geom.Cube, out []int64) ([]int64, int) {
	if q.IsEmpty() {
		return out, 0
	}
	visited := 0
	for _, r := range s.rungs {
		var v int
		out, v = r.Search(q, out)
		visited += v
	}
	return out, visited
}

// Len returns the number of entries in the snapshot.
func (s Snapshot) Len() int {
	n := 0
	for _, r := range s.rungs {
		n += r.Len()
	}
	return n
}

// Validate checks the structural invariants of every rung and the
// ladder's shape: each rung at least twice the size of the next.
func (s Snapshot) Validate() error {
	for i, r := range s.rungs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rung %d: %w", i, err)
		}
		if i > 0 && s.rungs[i-1].Len() < 2*r.Len() {
			return fmt.Errorf("index: rung %d has %d entries, under twice rung %d's %d", i-1, s.rungs[i-1].Len(), i, r.Len())
		}
	}
	return nil
}

// Dynamic is a Snapshot behind a lock, folded on every insert. The
// served path does not use it — the ingest store owns its ladder under
// its own lock — and it stays for the frozen bench/ module, which calls
// NewDynamic, InsertBatch, Search and Snapshot.
type Dynamic struct {
	mu   sync.Mutex
	snap Snapshot // guarded by mu
}

// NewDynamic starts a ladder with base (nil means empty) as its one
// rung. The second argument was the delta-merge threshold of the
// base+delta design the ladder replaced; it is ignored and kept only
// because bench/ calls NewDynamic with two arguments.
func NewDynamic(base *RTree, _ int) *Dynamic {
	d := &Dynamic{}
	if base != nil {
		// A built tree is immutable; the ladder shares it, never writes it
		d.snap = d.snap.WithRung(base)
	}
	return d
}

// InsertBatch folds es (copied, not retained) into the ladder and
// reports whether the fold merged at least one existing rung.
func (d *Dynamic) InsertBatch(es []Entry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	var merged bool
	d.snap, merged = d.snap.Fold(es)
	return merged
}

// Snapshot returns the current ladder.
func (d *Dynamic) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snap
}

// Search answers q against the current ladder; see Snapshot.Search.
func (d *Dynamic) Search(q geom.Cube, out []int64) ([]int64, int) {
	return d.Snapshot().Search(q, out)
}
