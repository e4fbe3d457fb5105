package storage

import (
	"fmt"
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// This file stores a live table of moving points — the payload of
// internal/ingest's WAL checkpoint — in the Figure 7 shape: one units
// array shared by every object, and an object array of fixed-size
// records that reference subranges of it by index, as variable-size
// units reference their shared subarray. Flattened (Encoded.Flatten):
//
//	root     version u32, objects u32, units u32,
//	         applied, dropped, compacted i64
//	array 0  units: every object's mpoint unit records (EncodeMPoint's
//	         record), object after object
//	array 1  objects: id [lo, hi) and units [lo, hi) as u32 pairs, seen
//	         u8, last sample t, x, y f64
//	array 2  ids: the object ids' bytes, concatenated
//
// Both ranges tile their arrays in object order, so a value has exactly
// one encoding. Version 1 was ingest's own checkpoint layout; it reads
// as corrupt.
const (
	historyVersion  = 2
	historyRootSize = 3*4 + 3*8
	trackSize       = 4*4 + 1 + 3*8
)

// Track is one object of a History: its unit array in temporal order
// and the latest sample the appender extends it from (Seen is false
// until the object has one). Starts is the dense column of the units'
// interval starts, Starts[i] == Units[i].Iv.Start, that §5.1's atinstant
// binary-searches; it is derived from Units and never encoded.
type Track struct {
	ID     string
	Units  []units.UPoint
	Starts []temporal.Instant
	Seen   bool
	Last   moving.Sample
}

// History is a table of tracks in registration order, plus the
// appender's admission counters.
type History struct {
	Tracks                      []Track
	Applied, Dropped, Compacted int64
}

// FillStarts derives every track's Starts column from its units. The
// columns share one array (one allocation, not one per object), each
// capped at its own end so that appending to one never writes into the
// next.
func (h *History) FillStarts() {
	n := 0
	for _, t := range h.Tracks {
		n += len(t.Units)
	}
	starts := make([]temporal.Instant, n)
	lo := 0
	for i := range h.Tracks {
		t := &h.Tracks[i]
		hi := lo + len(t.Units)
		for k, u := range t.Units {
			starts[lo+k] = u.Iv.Start
		}
		t.Starts = starts[lo:hi:hi]
		lo = hi
	}
}

// EncodeHistory writes h flattened, straight into one buffer of the
// exact size.
func EncodeHistory(h History) []byte {
	nUnits, idBytes := 0, 0
	for _, t := range h.Tracks {
		nUnits, idBytes = nUnits+len(t.Units), idBytes+len(t.ID)
	}
	w := writer{buf: make([]byte, 0, 4+historyRootSize+4*4+nUnits*upointSize+len(h.Tracks)*trackSize+idBytes)}
	w.u32(historyRootSize)
	w.u32(historyVersion)
	w.u32(uint32(len(h.Tracks)))
	w.u32(uint32(nUnits))
	w.i64(h.Applied)
	w.i64(h.Dropped)
	w.i64(h.Compacted)
	w.u32(3)
	w.u32(uint32(nUnits * upointSize))
	for _, t := range h.Tracks {
		appendUPoints(&w, t.Units)
	}
	w.u32(uint32(len(h.Tracks) * trackSize))
	idLo, lo := 0, 0
	for _, t := range h.Tracks {
		w.u32(uint32(idLo))
		w.u32(uint32(idLo + len(t.ID)))
		w.u32(uint32(lo))
		w.u32(uint32(lo + len(t.Units)))
		w.boolv(t.Seen)
		w.f64(float64(t.Last.T))
		w.f64(t.Last.P.X)
		w.f64(t.Last.P.Y)
		idLo, lo = idLo+len(t.ID), lo+len(t.Units)
	}
	w.u32(uint32(idBytes))
	for _, t := range h.Tracks {
		w.buf = append(w.buf, t.ID...)
	}
	return w.buf
}

// DecodeHistory reverses EncodeHistory and trusts nothing: counts are
// checked against the array sizes before anything is allocated, every
// track's units pass mapping.Validate in stored order, and a track must
// be one the appender can extend — ids non-empty and unique, a track
// with units seen and resuming at its final unit's end, a seen sample
// finite. The tracks' unit slices share one array (one allocation, not
// one per object), each capped at its own end so that appending to one
// never writes into the next; FillStarts lays out their Starts columns
// the same way.
func DecodeHistory(buf []byte) (History, error) {
	e, err := Unflatten(buf)
	if err != nil {
		return History{}, err
	}
	if len(e.Arrays) != 3 {
		return History{}, fmt.Errorf("%w: history needs 3 arrays", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	version, nObj, nUnits := root.u32(), int(root.u32()), int(root.u32())
	h := History{Applied: root.i64(), Dropped: root.i64(), Compacted: root.i64()}
	if err := root.done(); err != nil {
		return History{}, err
	}
	if version != historyVersion || h.Applied < 0 || h.Dropped < 0 || h.Compacted < 0 {
		return History{}, fmt.Errorf("%w: history version %d, counters %d/%d/%d", ErrCorrupt, version, h.Applied, h.Dropped, h.Compacted)
	}
	objs, ids := reader{buf: e.Arrays[1]}, string(e.Arrays[2]) // one allocation for every id
	if nObj != len(objs.buf)/trackSize || len(objs.buf)%trackSize != 0 {
		return History{}, fmt.Errorf("%w: %d objects in a %d-byte array", ErrCorrupt, nObj, len(objs.buf))
	}
	us, err := getUPoints(e.Arrays[0], nUnits)
	if err != nil {
		return History{}, err
	}
	h.Tracks = make([]Track, nObj)
	byID := make(map[string]bool, nObj)
	idEnd, end := 0, 0
	for i := range h.Tracks {
		idLo, idHi, lo, hi := int(objs.u32()), int(objs.u32()), int(objs.u32()), int(objs.u32())
		t := Track{Seen: objs.boolv(), Last: moving.Sample{T: temporal.Instant(objs.f64()), P: geom.Pt(objs.f64(), objs.f64())}}
		if objs.err != nil || idLo != idEnd || idHi <= idLo || idHi > len(ids) || lo != end || hi < lo || hi > nUnits {
			return History{}, fmt.Errorf("%w: object %d record", ErrCorrupt, i)
		}
		t.ID, t.Units = ids[idLo:idHi], us[lo:hi:hi]
		if _, err := mapping.NewOrdered(t.Units); err != nil {
			return History{}, fmt.Errorf("%w: object %q: %v", ErrCorrupt, t.ID, err)
		}
		n := len(t.Units)
		if n > 0 && (!t.Seen || t.Last.T != t.Units[n-1].Iv.End) || t.Seen && (!finite(float64(t.Last.T)) || !finite(t.Last.P.X) || !finite(t.Last.P.Y)) {
			return History{}, fmt.Errorf("%w: object %q: last sample %v (seen %t) is not a finite resumption of its units", ErrCorrupt, t.ID, t.Last, t.Seen)
		}
		if byID[t.ID] {
			return History{}, fmt.Errorf("%w: duplicate object id %q", ErrCorrupt, t.ID)
		}
		byID[t.ID] = true
		h.Tracks[i], idEnd, end = t, idHi, hi
	}
	if idEnd != len(ids) || end != nUnits {
		return History{}, fmt.Errorf("%w: arrays extend past the last object", ErrCorrupt)
	}
	h.FillStarts()
	return h, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
