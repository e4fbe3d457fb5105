package storage

import (
	"fmt"

	"movingdb/internal/moving"
	"movingdb/internal/units"
)

// EncodeMLine stores a moving line in the Figure 7 layout: the units
// array holds (interval, start, end) records referencing the shared
// subarray of MSeg records (pairs of MPoint records, in the canonical
// MSeg order of Section 4.2).
func EncodeMLine(m moving.MLine) Encoded {
	var root, unitsArr, sub writer
	root.u32(uint32(m.M.Len()))
	off := 0
	for _, u := range m.M.Units() {
		writeInterval(&unitsArr, u.Iv)
		unitsArr.u32(uint32(off))
		unitsArr.u32(uint32(off + len(u.Ms)))
		for _, g := range u.Ms {
			writeMPointRec(&sub, g.S)
			writeMPointRec(&sub, g.E)
		}
		off += len(u.Ms)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{unitsArr.buf, sub.buf}}
}

// DecodeMLine reverses EncodeMLine, re-validating the mapping
// constraints and the structural unit constraints (coplanarity); the
// full for-all-instants validation is not repeated on load, matching
// DecodeMRegion.
func DecodeMLine(e Encoded) (moving.MLine, error) {
	if len(e.Arrays) != 2 {
		return moving.MLine{}, fmt.Errorf("%w: mline needs 2 arrays", ErrCorrupt)
	}
	pool, err := readRecords(e.Arrays[1], func(r *reader) units.MSeg { return units.MSeg{S: readMPointRec(r), E: readMPointRec(r)} })
	if err != nil {
		return moving.MLine{}, err
	}
	m, err := decodeUnits(Encoded{Root: e.Root, Arrays: e.Arrays[:1]}, records(func(r *reader) (units.ULine, error) {
		iv, err := readInterval(r)
		if err != nil {
			return units.ULine{}, err
		}
		lo, hi := int(r.u32()), int(r.u32())
		if r.err != nil || lo > hi || hi > len(pool) {
			return units.ULine{}, fmt.Errorf("%w: mline subarray range [%d,%d)", ErrCorrupt, lo, hi)
		}
		for _, g := range pool[lo:hi] {
			if g.S == g.E || !g.Coplanar() {
				return units.ULine{}, fmt.Errorf("%w: invalid moving segment in mline", ErrCorrupt)
			}
		}
		return units.ULineUnchecked(iv, pool[lo:hi]), nil
	}))
	return moving.MLine{M: m}, err
}
