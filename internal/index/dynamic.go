package index

import (
	"slices"
	"sync"

	"movingdb/internal/geom"
)

// DefaultMergeThreshold is the delta-buffer size at which a Dynamic
// index folds the buffer into a rebuilt base tree.
const DefaultMergeThreshold = 4096

// Dynamic makes the static STR tree incrementally maintainable, in the
// LSM style the live ingestion path needs: inserts land in a delta
// buffer that Search scans linearly alongside the immutable base tree,
// and when the buffer grows past the merge threshold the base is
// rebuilt by bulk-loading the merged entry set and the buffer is
// emptied. Linear delta scans stay cheap because the buffer is bounded
// by the threshold; the rebuild amortises to O(log n) bulk-load work
// per insert. All methods are safe for concurrent use.
type Dynamic struct {
	mu        sync.RWMutex
	base      *RTree  // moguard: guarded by mu
	delta     []Entry // moguard: guarded by mu
	threshold int     // moguard: immutable
	merges    int     // moguard: guarded by mu
}

// NewDynamic wraps a bulk-loaded base tree (nil means empty) with a
// delta buffer that triggers a rebuild past threshold entries
// (DefaultMergeThreshold when <= 0).
func NewDynamic(base *RTree, threshold int) *Dynamic {
	if base == nil {
		base = Build(nil)
	}
	if threshold <= 0 {
		threshold = DefaultMergeThreshold
	}
	return &Dynamic{base: base, threshold: threshold}
}

// Insert adds one entry and reports whether it triggered a merge.
func (d *Dynamic) Insert(e Entry) bool { return d.InsertBatch([]Entry{e}) }

// InsertBatch adds entries to the delta buffer, rebuilding the base
// tree when the buffer exceeds the merge threshold. It reports whether
// a merge happened.
func (d *Dynamic) InsertBatch(es []Entry) bool {
	if len(es) == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.delta = append(d.delta, es...)
	if len(d.delta) <= d.threshold {
		return false
	}
	d.mergeLocked()
	return true
}

// ForceMerge folds a non-empty delta buffer into the base tree now.
func (d *Dynamic) ForceMerge() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.delta) > 0 {
		d.mergeLocked()
	}
}

func (d *Dynamic) mergeLocked() {
	all := make([]Entry, 0, len(d.base.entries)+len(d.delta))
	all = append(all, d.base.entries...)
	all = append(all, d.delta...)
	d.base = Build(all)
	d.delta = nil
	d.merges++
}

// Snapshot is an immutable point-in-time view of a Dynamic index: the
// base tree pointer plus the delta buffer clipped to its length at
// capture. Both are safe to search without any lock — the base tree is
// never mutated after Build, and the delta slice's visible prefix is
// append-only (inserts land past the captured length, merges swap in a
// fresh slice and leave the captured one behind). The zero value is an
// empty, searchable snapshot. Epoch-pinned readers hold one for their
// whole lifetime, so a concurrent merge or insert never moves the data
// out from under them.
type Snapshot struct {
	base  *RTree
	delta []Entry
}

// Snapshot captures the current base tree and delta prefix. The lock is
// held only for the two pointer reads, not for any search that follows.
func (d *Dynamic) Snapshot() Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Snapshot{base: d.base, delta: d.delta}
}

// Search appends to out the IDs of all entries — base and captured
// delta — whose cubes intersect q, and returns the number of nodes
// visited plus delta entries scanned. Lock-free: the snapshot's data is
// immutable. Duplicate IDs may appear when a unit was indexed in pieces
// (an append merged into its predecessor adds a second entry for the
// extension); callers dedupe during refinement.
// Like RTree.Search, the appended region comes back sorted ascending.
func (s Snapshot) Search(q geom.Cube, out []int64) ([]int64, int) {
	start := len(out)
	visited := 0
	if s.base != nil {
		out, visited = s.base.Search(q, out)
	}
	for _, e := range s.delta {
		if e.Cube.Intersects(q) {
			out = append(out, e.ID)
		}
	}
	slices.Sort(out[start:])
	return out, visited + len(s.delta)
}

// Len returns the number of entries visible in the snapshot.
func (s Snapshot) Len() int {
	n := len(s.delta)
	if s.base != nil {
		n += s.base.Len()
	}
	return n
}

// Search answers q against a snapshot taken now; see Snapshot.Search.
func (d *Dynamic) Search(q geom.Cube, out []int64) ([]int64, int) {
	return d.Snapshot().Search(q, out)
}

// Len returns the total number of entries (base + delta).
func (d *Dynamic) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.Len() + len(d.delta)
}

// BaseLen returns the number of entries in the bulk-loaded base tree.
func (d *Dynamic) BaseLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.Len()
}

// DeltaLen returns the number of entries waiting in the delta buffer.
func (d *Dynamic) DeltaLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.delta)
}

// Merges returns how many delta-fold rebuilds have happened.
func (d *Dynamic) Merges() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.merges
}

// Validate checks the structural invariants of the current base tree.
func (d *Dynamic) Validate() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.Validate()
}
