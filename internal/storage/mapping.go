package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/units"
)

// This file implements the mapping layout of Figure 7: one units array
// holding fixed-size unit records ordered by time interval, plus k
// shared subarrays for the variable-size unit types. Each variable-size
// unit record carries (start, end) indices into the shared subarrays —
// the "subarray" concept of Section 4.2 — so the whole moving object
// occupies a fixed number of contiguous memory blocks and contains no
// pointers.

// --- fixed size units: mbool / mint / mstring / mreal / mpoint ---

// EncodeMBool stores a moving bool: a single units array of fixed-size
// (interval, bool) records.
func EncodeMBool(b moving.MBool) Encoded {
	var root, arr writer
	root.u32(uint32(b.M.Len()))
	for _, u := range b.M.Units() {
		writeInterval(&arr, u.Iv)
		arr.boolv(u.V)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodeMBool reverses EncodeMBool, re-validating the mapping
// constraints.
func DecodeMBool(e Encoded) (moving.MBool, error) {
	m, err := decodeUnits(e, records(func(r *reader) (units.UBool, error) {
		iv, err := readInterval(r)
		return units.UBool{Iv: iv, V: r.boolv()}, err
	}))
	return moving.MBool{M: m}, err
}

// EncodeMInt stores a moving int.
func EncodeMInt(b moving.MInt) Encoded {
	var root, arr writer
	root.u32(uint32(b.M.Len()))
	for _, u := range b.M.Units() {
		writeInterval(&arr, u.Iv)
		arr.i64(u.V)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodeMInt reverses EncodeMInt.
func DecodeMInt(e Encoded) (moving.MInt, error) {
	m, err := decodeUnits(e, records(func(r *reader) (units.UInt, error) {
		iv, err := readInterval(r)
		return units.UInt{Iv: iv, V: r.i64()}, err
	}))
	return moving.MInt{M: m}, err
}

// EncodeMString stores a moving string. String payloads live in a
// second array (they are the only variable-size component of the
// otherwise fixed-size unit records).
func EncodeMString(b moving.MString) Encoded {
	var root, arr, strArr writer
	root.u32(uint32(b.M.Len()))
	for _, u := range b.M.Units() {
		writeInterval(&arr, u.Iv)
		arr.u32(uint32(len(strArr.buf)))
		arr.u32(uint32(len(u.V)))
		strArr.buf = append(strArr.buf, u.V...)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf, strArr.buf}}
}

// DecodeMString reverses EncodeMString.
func DecodeMString(e Encoded) (moving.MString, error) {
	if len(e.Arrays) != 2 {
		return moving.MString{}, fmt.Errorf("%w: mstring needs 2 arrays", ErrCorrupt)
	}
	strs := e.Arrays[1]
	m, err := decodeUnits(Encoded{Root: e.Root, Arrays: e.Arrays[:1]}, records(func(r *reader) (units.UString, error) {
		iv, err := readInterval(r)
		if err != nil {
			return units.UString{}, err
		}
		off, n := int(r.u32()), int(r.u32())
		if r.err != nil || off+n > len(strs) {
			return units.UString{}, fmt.Errorf("%w: string payload range", ErrCorrupt)
		}
		return units.UString{Iv: iv, V: string(strs[off : off+n])}, nil
	}))
	return moving.MString{M: m}, err
}

// EncodeMReal stores a moving real: fixed-size (interval, a, b, c, root)
// records.
func EncodeMReal(m moving.MReal) Encoded {
	var root, arr writer
	root.u32(uint32(m.M.Len()))
	for _, u := range m.M.Units() {
		writeInterval(&arr, u.Iv)
		arr.f64(u.A)
		arr.f64(u.B)
		arr.f64(u.C)
		arr.boolv(u.Root)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodeMReal reverses EncodeMReal.
func DecodeMReal(e Encoded) (moving.MReal, error) {
	m, err := decodeUnits(e, records(func(r *reader) (units.UReal, error) {
		iv, err := readInterval(r)
		return units.UReal{Iv: iv, A: r.f64(), B: r.f64(), C: r.f64(), Root: r.boolv()}, err
	}))
	return moving.MReal{M: m}, err
}

// upointSize is one mpoint unit record: the interval, then the motion.
const upointSize = intervalSize + motionSize

// appendUPoints and getUPoints are the mpoint unit records, shared by
// EncodeMPoint/DecodeMPoint and EncodeHistory/DecodeHistory's units
// array.
func appendUPoints(w *writer, us []units.UPoint) {
	b := w.grow(len(us) * upointSize)
	for i := range us {
		r := b[i*upointSize : (i+1)*upointSize]
		putInterval(r, us[i].Iv)
		putMotion(r[intervalSize:], us[i].M)
	}
}

// getUPoints decodes an array of n unit records, which must fill it
// exactly; the size check bounds n before anything is allocated. The
// caller checks the intervals, as a mapping.
func getUPoints(b []byte, n int) ([]units.UPoint, error) {
	if n != len(b)/upointSize || len(b)%upointSize != 0 {
		return nil, fmt.Errorf("%w: %d mpoint units in a %d-byte array", ErrCorrupt, n, len(b))
	}
	us := make([]units.UPoint, n)
	for i := range us {
		r := b[i*upointSize : (i+1)*upointSize]
		iv, ok := getInterval(r)
		m := getMotion(r[intervalSize:])
		if !ok || !finite(m.X0) || !finite(m.X1) || !finite(m.Y0) || !finite(m.Y1) {
			return nil, fmt.Errorf("%w: unit record %d: flags %d, %d, motion %+v", ErrCorrupt, i, r[16], r[17], m)
		}
		us[i] = units.UPoint{Iv: iv, M: m}
	}
	return us, nil
}

// EncodeMPoint stores a moving point: fixed-size
// (interval, x0, x1, y0, y1) records.
func EncodeMPoint(m moving.MPoint) Encoded {
	var root, arr writer
	root.u32(uint32(m.M.Len()))
	appendUPoints(&arr, m.M.Units())
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodeMPoint reverses EncodeMPoint.
func DecodeMPoint(e Encoded) (moving.MPoint, error) {
	m, err := decodeUnits(e, getUPoints)
	return moving.MPoint{M: m}, err
}

// decodeUnits reads the unit count from the root record, decodes the
// one units array with decode and checks the result as a mapping in
// stored order: an array that is out of order, overlapping or not
// minimal is corrupt, never re-sorted.
func decodeUnits[U units.Unit[U]](e Encoded, decode func(arr []byte, n int) ([]U, error)) (mapping.Mapping[U], error) {
	if len(e.Arrays) != 1 {
		return mapping.Mapping[U]{}, fmt.Errorf("%w: mapping needs 1 units array", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	n := int(root.u32())
	if err := root.done(); err != nil {
		return mapping.Mapping[U]{}, err
	}
	us, err := decode(e.Arrays[0], n)
	if err != nil {
		return mapping.Mapping[U]{}, err
	}
	m, err := mapping.NewOrdered(us)
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// records adapts a per-record reader to decodeUnits: it reads the n
// unit records one by one (mpoints take getUPoints, a whole-array pass).
func records[U any](read func(*reader) (U, error)) func([]byte, int) ([]U, error) {
	return func(buf []byte, n int) ([]U, error) {
		// A record is at least an interval: reject counts the array
		// cannot possibly hold before allocating.
		if n > len(buf)/intervalSize {
			return nil, fmt.Errorf("%w: unit count %d exceeds array capacity", ErrCorrupt, n)
		}
		arr := reader{buf: buf}
		us := make([]U, 0, n)
		for i := 0; i < n; i++ {
			u, err := read(&arr)
			if err != nil {
				return nil, err
			}
			us = append(us, u)
		}
		return us, arr.done()
	}
}

// --- variable size units: mpoints / mregion (Figure 7 layout) ---

// motionSize is one stored linear motion: x0, x1, y0, y1.
const motionSize = 4 * 8

func putMotion(b []byte, m units.MPoint) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(m.X0))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.X1))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(m.Y0))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(m.Y1))
}

func getMotion(b []byte) units.MPoint {
	return units.MPoint{
		X0: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		X1: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Y0: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Y1: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

func writeMPointRec(w *writer, m units.MPoint) { putMotion(w.grow(motionSize), m) }

func readMPointRec(r *reader) units.MPoint { return getMotion(r.next(motionSize)) }

// EncodeMPoints stores a moving point set: the units array holds
// (interval, start, end) records whose indices reference the shared
// subarray of MPoint records — the exact structure of Figure 7.
func EncodeMPoints(m moving.MPoints) Encoded {
	var root, unitsArr, sub writer
	root.u32(uint32(m.M.Len()))
	off := 0
	for _, u := range m.M.Units() {
		writeInterval(&unitsArr, u.Iv)
		unitsArr.u32(uint32(off))
		unitsArr.u32(uint32(off + len(u.Ms)))
		for _, mp := range u.Ms {
			writeMPointRec(&sub, mp)
		}
		off += len(u.Ms)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{unitsArr.buf, sub.buf}}
}

// DecodeMPoints reverses EncodeMPoints, re-validating unit constraints.
func DecodeMPoints(e Encoded) (moving.MPoints, error) {
	if len(e.Arrays) != 2 {
		return moving.MPoints{}, fmt.Errorf("%w: mpoints needs 2 arrays", ErrCorrupt)
	}
	pool, err := readRecords(e.Arrays[1], readMPointRec)
	if err != nil {
		return moving.MPoints{}, err
	}
	m, err := decodeUnits(Encoded{Root: e.Root, Arrays: e.Arrays[:1]}, records(func(r *reader) (units.UPoints, error) {
		iv, err := readInterval(r)
		if err != nil {
			return units.UPoints{}, err
		}
		lo, hi := int(r.u32()), int(r.u32())
		if r.err != nil || lo > hi || hi > len(pool) {
			return units.UPoints{}, fmt.Errorf("%w: subarray range [%d,%d)", ErrCorrupt, lo, hi)
		}
		return units.NewUPoints(iv, pool[lo:hi]...)
	}))
	return moving.MPoints{M: m}, err
}

// EncodeMRegion stores a moving region with the subarrays of
// Section 4.2: msegments (as moving ring vertices), mcycles and mfaces.
// Unit records reference their face run; face records reference their
// cycle run; cycle records reference their vertex run — indices
// throughout, no pointers.
func EncodeMRegion(m moving.MRegion) Encoded {
	var root, unitsArr, mfaces, mcycles, mverts writer
	root.u32(uint32(m.M.Len()))
	faceIdx, cycIdx, vertIdx := 0, 0, 0
	writeCycle := func(c units.MCycle) {
		mcycles.u32(uint32(vertIdx))
		mcycles.u32(uint32(len(c)))
		for _, v := range c {
			writeMPointRec(&mverts, v)
		}
		vertIdx += len(c)
		cycIdx++
	}
	for _, u := range m.M.Units() {
		writeInterval(&unitsArr, u.Iv)
		unitsArr.u32(uint32(faceIdx))
		unitsArr.u32(uint32(faceIdx + len(u.Faces)))
		for _, f := range u.Faces {
			mfaces.u32(uint32(cycIdx))
			mfaces.u32(uint32(1 + len(f.Holes)))
			writeCycle(f.Outer)
			for _, h := range f.Holes {
				writeCycle(h)
			}
			faceIdx++
		}
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{unitsArr.buf, mfaces.buf, mcycles.buf, mverts.buf}}
}

// DecodeMRegion reverses EncodeMRegion. Unit validity is re-checked
// structurally (rings, coplanarity); the full for-all-instants
// validation is not repeated on load — the stored value was validated
// when constructed, matching how a DBMS treats its own pages.
func DecodeMRegion(e Encoded) (moving.MRegion, error) {
	if len(e.Arrays) != 4 {
		return moving.MRegion{}, fmt.Errorf("%w: mregion needs 4 arrays", ErrCorrupt)
	}
	verts, err := readRecords(e.Arrays[3], readMPointRec)
	if err != nil {
		return moving.MRegion{}, err
	}
	type cycRec struct{ off, n int }
	cycles, err := readRecords(e.Arrays[2], func(r *reader) cycRec { return cycRec{int(r.u32()), int(r.u32())} })
	if err != nil {
		return moving.MRegion{}, err
	}
	type faceRec struct{ first, n int }
	faces, err := readRecords(e.Arrays[1], func(r *reader) faceRec { return faceRec{int(r.u32()), int(r.u32())} })
	if err != nil {
		return moving.MRegion{}, err
	}
	mkCycle := func(c cycRec) (units.MCycle, error) {
		if c.off+c.n > len(verts) || c.n < 3 {
			return nil, fmt.Errorf("%w: mcycle vertex range", ErrCorrupt)
		}
		return units.MCycle(verts[c.off : c.off+c.n]), nil
	}
	m, err := decodeUnits(Encoded{Root: e.Root, Arrays: e.Arrays[:1]}, records(func(r *reader) (units.URegion, error) {
		iv, err := readInterval(r)
		if err != nil {
			return units.URegion{}, err
		}
		lo, hi := int(r.u32()), int(r.u32())
		if r.err != nil || lo > hi || hi > len(faces) {
			return units.URegion{}, fmt.Errorf("%w: face range", ErrCorrupt)
		}
		mfs := make([]units.MFace, 0, hi-lo)
		for k := lo; k < hi; k++ {
			fr := faces[k]
			if fr.first+fr.n > len(cycles) || fr.n < 1 {
				return units.URegion{}, fmt.Errorf("%w: cycle range", ErrCorrupt)
			}
			outer, err := mkCycle(cycles[fr.first])
			if err != nil {
				return units.URegion{}, err
			}
			mf := units.MFace{Outer: outer}
			for c := fr.first + 1; c < fr.first+fr.n; c++ {
				h, err := mkCycle(cycles[c])
				if err != nil {
					return units.URegion{}, err
				}
				mf.Holes = append(mf.Holes, h)
			}
			mfs = append(mfs, mf)
		}
		return units.URegionUnchecked(iv, mfs), nil
	}))
	return moving.MRegion{M: m}, err
}
