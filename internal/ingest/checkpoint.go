package ingest

import (
	"encoding/binary"
	"fmt"
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// Checkpoint state payload: the full appender state at one WAL
// sequence number, written as the body of a walKindCheckpoint record.
// Layout (little-endian):
//
//	version uint32 (1)
//	objects uint32, then per object:
//	  idLen uint32, id bytes
//	  seen  uint8
//	  lastT, lastX, lastY float64
//	  units uint32, then per unit:
//	    start, end float64
//	    flags uint8 (bit 0 = left-closed, bit 1 = right-closed)
//	    x0, x1, y0, y1 float64
//	applied, dropped, compacted int64
//
// The decoder trusts nothing: counts are bounded against the bytes
// actually present before any allocation, intervals go through
// temporal.NewInterval, and each object's unit sequence is checked for
// the §3.3 disjoint-and-ordered invariant — a checkpoint that decodes
// but describes an impossible store is as corrupt as one that fails
// its CRC, and recovery falls back the same way.
const (
	stateVersion = 1

	// Minimum wire footprints, for bounding counts pre-allocation.
	minObjectSize = 4 + 1 + 24 + 4 // idLen + seen + last sample + unit count
	unitSize      = 8 + 8 + 1 + 32 // start + end + flags + four coefficients
)

// encodeState snapshots the store into a checkpoint payload. It takes
// the read lock itself; the caller (checkpointNow) guarantees the WAL
// sequence it pairs the payload with cannot advance concurrently.
func encodeState(s *Store) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 8
	for _, o := range s.objs {
		n += minObjectSize + len(o.id) + len(o.units)*unitSize
	}
	n += 24
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.objs)))
	for _, o := range s.objs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.id)))
		buf = append(buf, o.id...)
		var seen byte
		if o.seen {
			seen = 1
		}
		buf = append(buf, seen)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(o.last.T)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.last.P.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.last.P.Y))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.units)))
		for _, u := range o.units {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(u.Iv.Start)))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(u.Iv.End)))
			var flags byte
			if u.Iv.LC {
				flags |= 1
			}
			if u.Iv.RC {
				flags |= 2
			}
			buf = append(buf, flags)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.M.X0))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.M.X1))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.M.Y0))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.M.Y1))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.applied))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.dropped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.compacted))
	return buf
}

// stateObject is one decoded object, pre-validation of store-level
// uniqueness.
type stateObject struct {
	id    string
	seen  bool
	last  moving.Sample
	units []units.UPoint
}

type stateImage struct {
	objs      []stateObject
	applied   int64
	dropped   int64
	compacted int64
}

func corruptState(format string, args ...any) error {
	return fmt.Errorf("%w: checkpoint state: %s", storage.ErrCorrupt, fmt.Sprintf(format, args...))
}

// decodeState parses and validates a checkpoint payload.
func decodeState(payload []byte) (stateImage, error) {
	var img stateImage
	if len(payload) < 8 {
		return img, corruptState("short header")
	}
	if v := binary.LittleEndian.Uint32(payload); v != stateVersion {
		return img, corruptState("unknown version %d", v)
	}
	nobj := int(binary.LittleEndian.Uint32(payload[4:]))
	off := 8
	if nobj < 0 || nobj > (len(payload)-off)/minObjectSize {
		return img, corruptState("object count %d exceeds payload", nobj)
	}
	seenIDs := make(map[string]bool, nobj)
	img.objs = make([]stateObject, 0, nobj)
	for i := 0; i < nobj; i++ {
		if len(payload)-off < 4 {
			return img, corruptState("truncated object %d", i)
		}
		idLen := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if idLen <= 0 || len(payload)-off < idLen+29 {
			return img, corruptState("truncated object %d", i)
		}
		var o stateObject
		o.id = string(payload[off : off+idLen])
		off += idLen
		if seenIDs[o.id] {
			return img, corruptState("duplicate object id %q", o.id)
		}
		seenIDs[o.id] = true
		switch payload[off] {
		case 0:
		case 1:
			o.seen = true
		default:
			return img, corruptState("object %q has bad seen flag", o.id)
		}
		off++
		t := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		x := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:]))
		off += 24
		if o.seen && (!finite(t) || !finite(x) || !finite(y)) {
			return img, corruptState("object %q has a non-finite sample", o.id)
		}
		o.last = moving.Sample{T: temporal.Instant(t), P: geom.Pt(x, y)}
		nunits := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if nunits < 0 || nunits > (len(payload)-off)/unitSize {
			return img, corruptState("object %q unit count %d exceeds payload", o.id, nunits)
		}
		o.units = make([]units.UPoint, 0, nunits)
		for j := 0; j < nunits; j++ {
			start := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			end := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
			flags := payload[off+16]
			x0 := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+17:]))
			x1 := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+25:]))
			y0 := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+33:]))
			y1 := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+41:]))
			off += unitSize
			if flags > 3 || !finite(x0) || !finite(x1) || !finite(y0) || !finite(y1) {
				return img, corruptState("object %q unit %d malformed", o.id, j)
			}
			iv, err := temporal.NewInterval(temporal.Instant(start), temporal.Instant(end), flags&1 != 0, flags&2 != 0)
			if err != nil {
				return img, corruptState("object %q unit %d: %v", o.id, j, err)
			}
			u := units.NewUPoint(iv, units.MPoint{X0: x0, X1: x1, Y0: y0, Y1: y1})
			if j > 0 {
				prev := o.units[j-1].Iv
				if !prev.RDisjoint(iv) {
					return img, corruptState("object %q units %d/%d violate disjoint order", o.id, j-1, j)
				}
			}
			o.units = append(o.units, u)
		}
		img.objs = append(img.objs, o)
	}
	if len(payload)-off != 24 {
		return img, corruptState("bad trailer length %d", len(payload)-off)
	}
	img.applied = int64(binary.LittleEndian.Uint64(payload[off:]))
	img.dropped = int64(binary.LittleEndian.Uint64(payload[off+8:]))
	img.compacted = int64(binary.LittleEndian.Uint64(payload[off+16:]))
	if img.applied < 0 || img.dropped < 0 || img.compacted < 0 {
		return img, corruptState("negative counters")
	}
	return img, nil
}

// validateState reports whether payload decodes to a consistent store
// image, without building one — the recovery scan's cheap gate.
func validateState(payload []byte) error {
	_, err := decodeState(payload)
	return err
}

// storeFromState rebuilds the live object table from a checkpoint
// image: objects in checkpoint order (which is registration order, so
// entryIDs stay stable), the index bulk-loaded as one rung over every
// unit.
func storeFromState(payload []byte, metrics *obs.Metrics) (*Store, error) {
	img, err := decodeState(payload)
	if err != nil {
		return nil, err
	}
	s := &Store{
		ids:       make(map[string]int, len(img.objs)),
		dirty:     make(map[int]geom.Rect),
		metrics:   metrics,
		applied:   img.applied,
		dropped:   img.dropped,
		compacted: img.compacted,
	}
	var entries []index.Entry
	for _, so := range img.objs {
		oi := len(s.objs)
		s.ids[so.id] = oi
		s.objs = append(s.objs, &object{id: so.id, units: so.units, last: so.last, seen: so.seen})
		for ui, u := range so.units {
			entries = append(entries, index.Entry{Cube: u.Cube(), ID: entryID(oi, ui)})
		}
	}
	s.idx = index.NewDynamic(index.Build(entries), 0)
	s.publish()
	return s, nil
}
