package index

import (
	"fmt"
	"slices"
	"sync"

	"movingdb/internal/geom"
)

// tailCap is the number of entries the append-only tail holds before it
// is folded into a rung. The tail is the only part a search scans
// linearly, so it bounds that cost. The ingest store indexes one entry
// per sealed chunk of 8 units, so 64 entries cover the 512 units the
// tail covered when an entry was one observation; the rows that chose
// it are in DESIGN.md §8.
const tailCap = 64

// Dynamic makes the static STR tree incrementally maintainable by the
// logarithmic method: a short ladder of immutable bulk-built rungs,
// each at least twice the size of the next, plus one small append-only
// tail. Inserts land in the tail; when it fills, the tail and every
// trailing rung smaller than twice the running total are folded into
// one Build, so an entry is rebuilt O(log n) times over its life and no
// fold ever rebuilds history it does not have to (a binary counter's
// carry chain). Search is a union over the O(log n) rungs and the tail.
// Ingest is time-ordered, so each rung is a time slab and narrow-period
// queries reject whole rungs at the root. All methods are safe for
// concurrent use.
type Dynamic struct {
	mu     sync.RWMutex
	rungs  []*RTree // moguard: guarded by mu // largest first; replaced on fold, never written in place
	tail   []Entry  // moguard: guarded by mu // append-only between folds, replaced on fold
	merges int      // moguard: guarded by mu
}

// NewDynamic starts a ladder with base (nil means empty) as its one
// rung. The second argument was the delta-merge threshold of the
// base+delta design this replaced; it is ignored — the tail size is a
// fixed constant — and kept only because the frozen bench/ module calls
// NewDynamic with two arguments.
func NewDynamic(base *RTree, _ int) *Dynamic {
	d := &Dynamic{}
	if base != nil && base.Len() > 0 {
		// A built tree is immutable; the ladder shares it, never writes it
		d.rungs = []*RTree{base}
	}
	return d
}

// Insert adds one entry; see InsertBatch.
func (d *Dynamic) Insert(e Entry) bool { return d.InsertBatch([]Entry{e}) }

// InsertBatch adds entries (es is copied, not retained) and reports
// whether it folded at least one existing rung into a larger one. Folds
// run synchronously on the caller: on one core a background compactor
// only moves the work, and the fold count must stay a function of the
// insert sequence.
func (d *Dynamic) InsertBatch(es []Entry) bool {
	if len(es) == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tail)+len(es) < tailCap {
		if d.tail == nil {
			d.tail = make([]Entry, 0, tailCap) // one allocation per fold cycle, not ten doublings
		}
		d.tail = append(d.tail, es...)
		return false
	}
	total, keep := len(d.tail)+len(es), len(d.rungs)
	for keep > 0 && d.rungs[keep-1].Len() < 2*total {
		keep--
		total += d.rungs[keep].Len()
	}
	all := make([]Entry, 0, total)
	for _, r := range d.rungs[keep:] {
		all = append(all, r.entries...)
	}
	all = append(append(all, d.tail...), es...)
	// Publish by replacement: a captured Snapshot keeps the old rung
	// slice and the old tail, neither of which is written again.
	merged := keep < len(d.rungs)
	d.rungs = append(slices.Clip(d.rungs[:keep]), Build(all))
	d.tail = nil
	if merged {
		d.merges++
	}
	return merged
}

// Snapshot is an immutable point-in-time view of a Dynamic index: the
// rung slice plus the tail clipped to its length at capture. Both are
// safe to search without any lock — a rung is never mutated after
// Build, a fold replaces the rung slice rather than writing into it,
// and the tail's visible prefix is append-only (inserts land past the
// captured length, a fold starts a fresh tail). The zero value is an
// empty, searchable snapshot. Epoch-pinned readers hold one for their
// whole lifetime, so a concurrent fold or insert never moves the data
// out from under them.
type Snapshot struct {
	rungs []*RTree
	tail  []Entry
}

// Snapshot captures the current rungs and tail prefix. The lock is held
// only for the two slice-header reads, not for any search that follows.
func (d *Dynamic) Snapshot() Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Snapshot{rungs: d.rungs, tail: d.tail}
}

// WithRung returns s with r searched as one more rung. r is shared, not
// copied, and s is left as it was; an empty r adds nothing, so every
// rung a snapshot searches has a root. The ingest store adds its open
// chunks this way: entries that are rebuilt on every publish and never
// enter the ladder.
func (s Snapshot) WithRung(r *RTree) Snapshot {
	if r.Len() > 0 {
		s.rungs = append(slices.Clip(s.rungs), r)
	}
	return s
}

// Search appends to out the IDs of all entries — every rung and the
// captured tail — whose cubes intersect q, and returns the number of
// nodes visited plus tail entries scanned. Lock-free: the snapshot's
// data is immutable. An ID comes back once per matching entry, so one
// the caller indexed twice can come back twice; the ingest store indexes
// each chunk of units once. The appended IDs come back in no particular
// order: the callers dedupe and order by themselves (ingest.Epoch.Window
// by object slot, the live registry by subscription id), so a sort here
// would be paid for and thrown away.
func (s Snapshot) Search(q geom.Cube, out []int64) ([]int64, int) {
	if q.IsEmpty() {
		return out, 0
	}
	visited := len(s.tail)
	for _, r := range s.rungs {
		var v int
		out, v = r.Search(q, out)
		visited += v
	}
	for i := range s.tail {
		if e := &s.tail[i]; overlaps(&e.Cube, &q) {
			out = append(out, e.ID)
		}
	}
	return out, visited
}

// Len returns the number of entries visible in the snapshot.
func (s Snapshot) Len() int {
	n := len(s.tail)
	for _, r := range s.rungs {
		n += r.Len()
	}
	return n
}

// Search answers q against a snapshot taken now; see Snapshot.Search.
func (d *Dynamic) Search(q geom.Cube, out []int64) ([]int64, int) {
	return d.Snapshot().Search(q, out)
}

// Len returns the total number of entries (rungs + tail).
func (d *Dynamic) Len() int { return d.Snapshot().Len() }

// Stats returns, as one consistent view, the entries held in rungs, the
// entries waiting in the tail, and the number of folds that consumed at
// least one existing rung.
func (d *Dynamic) Stats() (rungEntries, tailEntries, merges int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, r := range d.rungs {
		rungEntries += r.Len()
	}
	return rungEntries, len(d.tail), d.merges
}

// Validate checks the structural invariants of every rung and the
// ladder's shape: each rung at least twice the size of the next.
func (d *Dynamic) Validate() error {
	rungs := d.Snapshot().rungs
	for i, r := range rungs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rung %d: %w", i, err)
		}
		if i > 0 && rungs[i-1].Len() < 2*r.Len() {
			return fmt.Errorf("index: rung %d has %d entries, under twice rung %d's %d", i-1, rungs[i-1].Len(), i, r.Len())
		}
	}
	return nil
}
