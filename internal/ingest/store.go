package ingest

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// chunkUnits is the number of units one index entry covers: chunk c of
// an object is its units [c·chunkUnits, (c+1)·chunkUnits). The sweep
// that chose 8 is in DESIGN.md §8.
const chunkUnits = 8

// foldChunks is the number of sealed chunks that wait outside the
// ladder before Apply folds them in. Until then every publish rebuilds
// them into its epoch's extra rung, so it bounds that rebuild; the rows
// that chose 64 are in DESIGN.md §8.
const foldChunks = 64

// Store is the live object table: per-object unit arrays extended by
// the appender plus the index ladder over their chunks' cubes. It has no
// lock of its own: the pipeline reaches it only under Pipeline.mu, and
// the serving read path never reaches it — queries pin the published
// Epoch (an immutable copy-on-write view, see epoch.go) and never
// contend with a flush.
type Store struct {
	ids map[string]int

	// objs holds each tracked object's live state as the track a
	// checkpoint stores. Its unit array keeps the canonical online shape:
	// every unit right-half-open except the last, which is closed at the
	// latest observation (Last, or the seed endpoint) — exactly the
	// offline builder's chaining, maintained incrementally.
	objs []*storage.Track

	// ladder holds the folded sealed chunks: immutable rungs, replaced by
	// a fold and never written, so every epoch shares them as they are.
	// waiting holds the sealed chunks not yet folded, fewer than
	// foldChunks, and merges counts the folds that merged a rung. Open
	// chunks change with every append, so each publish builds them, with
	// the waiting chunks, into one extra rung of its epoch's snapshot.
	ladder  index.Snapshot
	waiting []index.Entry
	merges  int

	// slot[oi] is what Apply keeps per slot between publishes; it grows
	// with objs. ndirty counts the slots whose dirty rectangle is not
	// empty, and added flags new registrations (the frozen ids map must
	// be recopied).
	slot   []slotState
	ndirty int
	added  bool

	// order lists the ranked slots in ascending id order; idOrder
	// extends it by the slots registered since, so a publish walks its
	// dirty slots in id order and compares id strings only when an
	// object registers.
	order []int32

	applied   int64
	dropped   int64
	compacted int64

	metrics *obs.Metrics // synchronises itself, never nil
}

// slotState is one slot's share of the next publish. open is the slot's
// open chunk as an index entry: the union of the cubes of its last
// ≤ chunkUnits units, an empty cube while it has none. Apply extends it
// with every unit it appends or merges and hands it to waiting when the
// chunk seals. dirty is the bounding rectangle of the object's movement
// since the last publish (old position through new position, per
// accepted observation — the live query subsystem intersects it against
// standing-subscription regions); empty means the slot is clean.
type slotState struct {
	open  index.Entry
	dirty geom.Rect
}

// Position is one object's location at a queried instant.
type Position struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// ObjectSummary is one row of the object listing.
type ObjectSummary struct {
	ID    string  `json:"id"`
	Units int     `json:"units"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
}

// newStore is the one constructor: it builds the object table from h —
// seeds (seedHistory), a recovered checkpoint or a frozen data set — in
// track order, which is registration order, so entryIDs stay stable. The
// store takes ownership of the tracks and bulk-loads the ladder's first
// rung over every sealed chunk. Its state is unpublished: the first
// publish(nil) seals it as the opening epoch.
func newStore(h *storage.History, metrics *obs.Metrics) (*Store, error) {
	s := &Store{ids: make(map[string]int, len(h.Tracks)), metrics: metrics}
	s.waiting = make([]index.Entry, 0, foldChunks)
	s.applied, s.dropped, s.compacted = h.Applied, h.Dropped, h.Compacted
	s.slot = make([]slotState, 0, len(h.Tracks))
	var entries []index.Entry
	for i := range h.Tracks {
		t := &h.Tracks[i]
		if t.ID == "" {
			return nil, fmt.Errorf("ingest: object %d has an empty id", i)
		}
		if _, dup := s.ids[t.ID]; dup {
			return nil, fmt.Errorf("ingest: duplicate object id %q", t.ID)
		}
		oi := len(s.objs)
		s.ids[t.ID] = oi
		s.objs = append(s.objs, t)
		open := openChunk(len(t.Units))
		for c := 0; c < open; c++ {
			entries = append(entries, chunkEntry(oi, t.Units, c))
		}
		s.slot = append(s.slot, slotState{open: chunkEntry(oi, t.Units, open), dirty: geom.EmptyRect()})
	}
	s.ladder = s.ladder.WithRung(index.Build(entries))
	return s, nil
}

// entryID packs (object, chunk) into the index payload id.
func entryID(oi, c int) int64 { return int64(oi)<<32 | int64(c) }

// openChunk is the chunk holding the last of n units; every chunk before
// it is sealed. With no units it is chunk 0, empty.
func openChunk(n int) int { return max(n-1, 0) / chunkUnits }

// chunkEntry is chunk c of slot oi, whose units are us, as an index
// entry: the union of the cubes of the chunk's units — its first
// len(us) − c·chunkUnits while it is open, all chunkUnits once sealed.
func chunkEntry(oi int, us []units.UPoint, c int) index.Entry {
	cube := geom.EmptyCube()
	for _, u := range us[c*chunkUnits : min((c+1)*chunkUnits, len(us))] {
		cube = cube.Union(u.Cube())
	}
	return index.Entry{Cube: cube, ID: entryID(oi, c)}
}

// checkCubes returns an error naming the first entry Apply kept that
// differs, bit for bit, from chunkEntry over its units: a waiting sealed
// chunk, or the open chunk of any slot.
func (s *Store) checkCubes() error {
	for _, e := range s.waiting {
		oi, c := int(e.ID>>32), int(uint32(e.ID))
		if want := chunkEntry(oi, s.objs[oi].Units, c); !sameBits(e, want) {
			return fmt.Errorf("ingest: waiting chunk %d of %q is %+v, its units make %+v", c, s.objs[oi].ID, e, want)
		}
	}
	for oi := range s.slot {
		us := s.objs[oi].Units
		if got, want := s.slot[oi].open, chunkEntry(oi, us, openChunk(len(us))); !sameBits(got, want) {
			return fmt.Errorf("ingest: open chunk of %q is %+v, its %d units make %+v", s.objs[oi].ID, got, len(us), want)
		}
	}
	return nil
}

// sameBits reports whether a and b have the same id and the same cube
// bit for bit (a signed zero or a NaN compares as its bits).
func sameBits(a, b index.Entry) bool {
	bits := func(c geom.Cube) [6]uint64 {
		f := math.Float64bits
		return [6]uint64{f(c.Rect.MinX), f(c.Rect.MinY), f(c.Rect.MaxX), f(c.Rect.MaxY), f(c.MinT), f(c.MaxT)}
	}
	return a.ID == b.ID && bits(a.Cube) == bits(b.Cube)
}

// Apply extends the mappings with a batch of observations, in order —
// one drained run, or one replayed WAL record. A run is consecutive WAL
// records concatenated, so applying it leaves the state that applying
// the records one by one leaves, slot order included. Non-monotone
// observations (t not after the object's latest) are dropped and
// counted. The ladder holds one entry per sealed chunk of an object's
// units: chunk c is sealed once unit (c+1)·chunkUnits is appended, after
// which appendUnit, which rewrites only the last unit, never touches it
// again, so its cube — the union of its units' cubes — is final. Apply
// keeps each slot's open entry as that union, extended by the cube of
// every unit it appends or merges; the append that seals a chunk hands
// the entry to the waiting chunks and opens the next one. Once
// foldChunks wait they fold into the ladder together.
//
// The running union is bit-identical to recomputing it from the units
// (chunkEntry): a cube depends on a unit's function and interval ends,
// never on its closure flags, so a re-open changes nothing, and a merge
// keeps the unit's function and moves only its end, and x0 + x1·t is
// monotone in t in floating point, so the grown unit's cube contains the
// cube it replaces.
func (s *Store) Apply(batch []Observation) (applied, dropped, compacted int) {
	for _, ob := range batch {
		oi, ok := s.ids[ob.ObjectID]
		if !ok {
			oi = len(s.objs)
			s.ids[ob.ObjectID] = oi
			s.objs = append(s.objs, &storage.Track{ID: ob.ObjectID})
			s.slot = append(s.slot, slotState{open: index.Entry{Cube: geom.EmptyCube(), ID: entryID(oi, 0)}, dirty: geom.EmptyRect()})
			s.added = true
		}
		o := s.objs[oi]
		smp := moving.Sample{T: temporal.Instant(ob.T), P: geom.Pt(ob.X, ob.Y)}
		if !o.Seen {
			o.Last, o.Seen = smp, true
			s.markDirty(oi, smp.P, smp.P)
			applied++
			continue
		}
		if smp.T <= o.Last.T {
			dropped++
			continue
		}
		s.markDirty(oi, o.Last.P, smp.P)
		ui, merged := appendUnit(o, unitBetween(o.Last, smp))
		cu, open := o.Units[ui].Cube(), &s.slot[oi].open
		if c := ui / chunkUnits; !merged && ui%chunkUnits == 0 && c > 0 {
			s.waiting = append(s.waiting, *open)
			*open = index.Entry{Cube: cu, ID: entryID(oi, c)}
		} else {
			open.Cube = open.Cube.Union(cu)
		}
		if merged {
			compacted++
		}
		o.Last = smp
		applied++
	}
	s.applied += int64(applied)
	s.dropped += int64(dropped)
	s.compacted += int64(compacted)
	if len(s.waiting) >= foldChunks {
		var merged bool
		s.ladder, merged = s.ladder.Fold(s.waiting)
		// A fresh buffer per fold cycle: reusing this one would pin
		// whatever size a large batch (a recovery, a frozen load) grew it to.
		s.waiting = make([]index.Entry, 0, foldChunks)
		if merged {
			s.merges++
			s.metrics.Ingest.IndexMerges.Inc()
		}
	}
	return applied, dropped, compacted
}

// unitBetween builds the unit covering [a.T, b.T] with the same
// construction as the offline builder (static unit for a resting pair,
// linear interpolation otherwise), closed at b — the unit is the
// mapping's new final unit.
func unitBetween(a, b moving.Sample) units.UPoint {
	iv := temporal.Closed(a.T, b.T)
	if a.P == b.P {
		return units.StaticUPoint(iv, a.P)
	}
	u, err := units.UPointBetween(iv, a.P, b.P)
	if err != nil {
		// Unreachable: the interval is non-degenerate by the monotone
		// admission check.
		panic(err)
	}
	return u
}

// appendUnit chains u onto o's unit array: the closed tail is re-opened on
// the right (the offline builder's half-open chaining, applied online)
// and the incoming unit is merged into it when the motion continues
// unchanged — the adjacent-equal-value minimality rule as compaction.
// It returns the index of the unit now covering u's interval and
// whether a merge happened. Only the two appends extend o.Starts: the
// re-open, the left-open chaining and the merge change the closure flags
// or the end of an interval, never its start, so a start once appended
// never changes.
func appendUnit(o *storage.Track, u units.UPoint) (int, bool) {
	n := len(o.Units)
	if n == 0 {
		o.Units, o.Starts = append(o.Units, u), append(o.Starts, u.Iv.Start)
		return 0, false
	}
	lu := o.Units[n-1]
	if lu.Iv.RC {
		if !lu.Iv.IsDegenerate() {
			lu = lu.WithInterval(temporal.MustInterval(lu.Iv.Start, lu.Iv.End, lu.Iv.LC, false))
			o.Units[n-1] = lu
		} else {
			// A degenerate closed tail (possible in seeded mappings)
			// cannot re-open; chain the new unit left-open instead.
			u = u.WithInterval(temporal.LeftHalfOpen(u.Iv.Start, u.Iv.End))
		}
	}
	if lu.Iv.RAdjacent(u.Iv) && lu.EqualFunc(u) {
		if iv, ok := lu.Iv.Union(u.Iv); ok {
			o.Units[n-1] = lu.WithInterval(iv)
			return n - 1, true
		}
	}
	o.Units, o.Starts = append(o.Units, u), append(o.Starts, u.Iv.Start)
	return n, false
}

// markDirty extends the object's pending movement rectangle with
// the segment endpoints of one accepted observation.
func (s *Store) markDirty(oi int, from, to geom.Point) {
	r := &s.slot[oi].dirty
	if r.IsEmpty() {
		s.ndirty++
	}
	*r = r.ExtendPoint(from).ExtendPoint(to)
}

// DirtyObject describes one object touched by the flushes behind an
// epoch publish: the bounding rectangle of its movement since the
// previous publish (old position through new position — if the object
// was inside a region at the previous epoch, its old position, and
// therefore the rectangle, still overlaps that region, so rectangle
// intersection is a complete candidate filter for both enter and leave
// edges).
type DirtyObject struct {
	ID   string
	Rect geom.Rect
}

// changed reports whether Apply changed anything since the last publish:
// a dirty slot or a new registration. Without either, publish returns
// its prev.
func (s *Store) changed() bool { return s.ndirty > 0 || s.added }

// publish seals the objects touched since prev, the epoch last
// published from this store (nil before the first), into the next epoch
// and returns it with the objects whose state changed (for the live
// query subsystem's standing-query notifier). With nothing dirty it
// returns prev itself, so a flush of only-dropped observations does not
// move the ETag; the caller publishes the epoch when it is new.
//
// The next epoch is built copy-on-write: untouched slots share prev's
// views (an 8-byte pointer copy each), dirty slots are re-sealed
// (constant work per object: a slice-header alias of the immutable
// prefix plus one unit copied by value), and the frozen ids map is
// recopied only when an object was registered. The views and the ladder
// are read in one call, so the view and its index agree exactly. Apply
// has kept every open entry current, so publish computes no cube: it
// STR-builds the waiting sealed chunks and every open chunk into one
// more rung on top of the ladder.
func (s *Store) publish(prev *Epoch) (*Epoch, []DirtyObject) {
	if prev != nil && !s.changed() {
		return prev, nil
	}
	if debugCubes {
		if err := s.checkCubes(); err != nil {
			panic(err)
		}
	}
	next := &Epoch{seq: 1}
	if prev != nil {
		next.seq = prev.seq + 1
	}
	if prev != nil && !s.added {
		next.ids = prev.ids
	} else {
		ids := make(map[string]int, len(s.ids))
		for id, oi := range s.ids {
			ids[id] = oi
		}
		next.ids = ids
	}
	next.objs = make([]*objView, len(s.objs))
	sealed := 0
	if prev != nil {
		sealed = copy(next.objs, prev.objs)
	}
	for oi := sealed; oi < len(s.objs); oi++ {
		next.objs[oi] = viewOf(s.objs[oi])
	}
	// Deterministic notification order: subscribers observe event order
	// per epoch — ascending id, the order idOrder walks the slots in.
	var dirty []DirtyObject
	if s.ndirty > 0 {
		dirty = make([]DirtyObject, 0, s.ndirty)
		for _, oi := range s.idOrder() {
			st := &s.slot[oi]
			if st.dirty.IsEmpty() {
				continue
			}
			if int(oi) < sealed {
				next.objs[oi] = viewOf(s.objs[oi])
			}
			dirty = append(dirty, DirtyObject{ID: s.objs[oi].ID, Rect: st.dirty})
			st.dirty = geom.EmptyRect()
		}
		s.ndirty = 0
	}
	extra := make([]index.Entry, 0, len(s.waiting)+len(s.slot))
	extra = append(extra, s.waiting...)
	for i := range s.slot {
		if e := s.slot[i].open; !e.Cube.IsEmpty() {
			extra = append(extra, e)
		}
	}
	next.idx = s.ladder.WithRung(index.Build(extra))
	s.added = false
	return next, dirty
}

// idOrder returns every registered slot in ascending id order: the
// slots added since the last call are sorted by id and merged into
// order, one pass over the table.
func (s *Store) idOrder() []int32 {
	old := len(s.order)
	if old == len(s.objs) {
		return s.order
	}
	cmp := func(a, b int32) int { return strings.Compare(s.objs[a].ID, s.objs[b].ID) }
	fresh := make([]int32, 0, len(s.objs)-old)
	for oi := old; oi < len(s.objs); oi++ {
		fresh = append(fresh, int32(oi))
	}
	slices.SortFunc(fresh, cmp)
	ranked := s.order
	s.order = make([]int32, 0, len(s.objs))
	for len(ranked) > 0 && len(fresh) > 0 {
		if cmp(ranked[0], fresh[0]) < 0 {
			s.order, ranked = append(s.order, ranked[0]), ranked[1:]
		} else {
			s.order, fresh = append(s.order, fresh[0]), fresh[1:]
		}
	}
	s.order = append(append(s.order, ranked...), fresh...)
	return s.order
}

// stats fills the store's part of Stats: the counters, the table's size
// and the ladder's.
func (s *Store) stats() Stats {
	st := Stats{
		Objects:     len(s.objs),
		Applied:     s.applied,
		Dropped:     s.dropped,
		Compacted:   s.compacted,
		RungEntries: s.ladder.Len(),
		TailEntries: len(s.waiting),
		IndexMerges: s.merges,
	}
	for _, o := range s.objs {
		st.Units += len(o.Units)
	}
	return st
}
