package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

// Encoded is the stored form of an attribute value: the fixed-size root
// record plus the database arrays it references. Arrays are kept
// separate so the tuple layer can decide inline vs external placement
// per array (Section 4: "database arrays are automatically either
// represented inline in a tuple representation, or outside in a separate
// list of pages, depending on their size").
type Encoded struct {
	Root   []byte
	Arrays [][]byte
}

// TotalSize returns the total number of bytes of root and arrays.
func (e Encoded) TotalSize() int {
	n := len(e.Root)
	for _, a := range e.Arrays {
		n += len(a)
	}
	return n
}

// Flatten concatenates root and arrays into one self-describing buffer
// (lengths prefixed), for callers that want a single blob.
func (e Encoded) Flatten() []byte {
	var w writer
	w.u32(uint32(len(e.Root)))
	w.buf = append(w.buf, e.Root...)
	w.u32(uint32(len(e.Arrays)))
	for _, a := range e.Arrays {
		w.u32(uint32(len(a)))
		w.buf = append(w.buf, a...)
	}
	return w.buf
}

// Unflatten reverses Flatten.
func Unflatten(buf []byte) (Encoded, error) {
	r := reader{buf: buf}
	rootLen := int(r.u32())
	if r.err != nil || r.off+rootLen > len(buf) {
		return Encoded{}, fmt.Errorf("%w: bad root length", ErrCorrupt)
	}
	root := buf[r.off : r.off+rootLen]
	r.off += rootLen
	n := int(r.u32())
	if r.err != nil || n > (len(buf)-r.off)/4 {
		// Every array costs at least its length word: bound the count
		// by the bytes present before allocating for it.
		return Encoded{}, fmt.Errorf("%w: bad array count", ErrCorrupt)
	}
	arrays := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		al := int(r.u32())
		if r.err != nil || r.off+al > len(buf) {
			return Encoded{}, fmt.Errorf("%w: bad array %d length", ErrCorrupt, i)
		}
		arrays = append(arrays, buf[r.off:r.off+al])
		r.off += al
	}
	if err := r.done(); err != nil {
		return Encoded{}, err
	}
	return Encoded{Root: root, Arrays: arrays}, nil
}

// --- point ---

// EncodePoint stores a point value: two reals plus a defined flag
// (Section 4.1). The representation has no arrays.
func EncodePoint(p spatial.Point) Encoded {
	var w writer
	w.boolv(p.Defined())
	w.f64(p.P.X)
	w.f64(p.P.Y)
	return Encoded{Root: w.buf}
}

// DecodePoint reverses EncodePoint.
func DecodePoint(e Encoded) (spatial.Point, error) {
	r := reader{buf: e.Root}
	def := r.boolv()
	x, y := r.f64(), r.f64()
	if err := r.done(); err != nil {
		return spatial.Point{}, err
	}
	if !def {
		return spatial.UndefPoint(), nil
	}
	return spatial.DefPoint(geom.Pt(x, y)), nil
}

// --- points ---

// EncodePoints stores a point set: the root record holds the count, the
// single array the lexicographically ordered point records.
func EncodePoints(ps spatial.Points) Encoded {
	var root, arr writer
	root.u32(uint32(ps.Len()))
	for _, p := range ps.Slice() {
		arr.f64(p.X)
		arr.f64(p.Y)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodePoints reverses EncodePoints, re-validating canonical order.
func DecodePoints(e Encoded) (spatial.Points, error) {
	if len(e.Arrays) != 1 {
		return spatial.Points{}, fmt.Errorf("%w: points needs 1 array", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	n := int(root.u32())
	if err := root.done(); err != nil {
		return spatial.Points{}, err
	}
	if n != len(e.Arrays[0])/16 {
		return spatial.Points{}, fmt.Errorf("%w: point count %d does not match array size", ErrCorrupt, n)
	}
	pts, err := readRecords(e.Arrays[0], readPoint)
	if err != nil {
		return spatial.Points{}, err
	}
	out, err := spatial.NewOrderedPoints(pts)
	if err != nil {
		return spatial.Points{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

func readPoint(r *reader) geom.Point { return geom.Pt(r.f64(), r.f64()) }

// --- halfsegments (shared by line and region) ---

func writeHalfSegment(w *writer, h geom.HalfSegment) {
	w.f64(h.Seg.Left.X)
	w.f64(h.Seg.Left.Y)
	w.f64(h.Seg.Right.X)
	w.f64(h.Seg.Right.Y)
	w.boolv(h.LeftDom)
}

func readHalfSegment(r *reader) (geom.HalfSegment, error) {
	lx, ly := r.f64(), r.f64()
	rx, ry := r.f64(), r.f64()
	dom := r.boolv()
	if r.err != nil {
		return geom.HalfSegment{}, r.err
	}
	seg, err := geom.NewSegment(geom.Pt(lx, ly), geom.Pt(rx, ry))
	if err != nil {
		return geom.HalfSegment{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if seg.Left != geom.Pt(lx, ly) {
		return geom.HalfSegment{}, fmt.Errorf("%w: halfsegment endpoints not canonical", ErrCorrupt)
	}
	return geom.HalfSegment{Seg: seg, LeftDom: dom}, nil
}

// --- line ---

// EncodeLine stores a line value: the root record holds the segment
// count, total length and bounding box (the summary information of
// Section 4.1); the array holds the ordered halfsegment records.
func EncodeLine(l spatial.Line) Encoded {
	var root, arr writer
	root.u32(uint32(l.NumSegments()))
	root.f64(l.Length())
	bb := l.BBox()
	root.f64(bb.MinX)
	root.f64(bb.MinY)
	root.f64(bb.MaxX)
	root.f64(bb.MaxY)
	for _, h := range l.HalfSegments() {
		writeHalfSegment(&arr, h)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodeLine reverses EncodeLine and re-validates the halfsegment order
// and carrier set constraints.
func DecodeLine(e Encoded) (spatial.Line, error) {
	if len(e.Arrays) != 1 {
		return spatial.Line{}, fmt.Errorf("%w: line needs 1 array", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	n := int(root.u32())
	_ = root.f64() // length (recomputed)
	for i := 0; i < 4; i++ {
		_ = root.f64() // bbox (recomputed)
	}
	if err := root.done(); err != nil {
		return spatial.Line{}, err
	}
	arr := reader{buf: e.Arrays[0]}
	const hsRecSize = 4*8 + 1
	if 2*n != len(arr.buf)/hsRecSize {
		return spatial.Line{}, fmt.Errorf("%w: halfsegment count %d does not match array size", ErrCorrupt, n)
	}
	segs := make([]geom.Segment, 0, n)
	for i := 0; i < 2*n; i++ {
		h, err := readHalfSegment(&arr)
		if err != nil {
			return spatial.Line{}, err
		}
		if h.LeftDom {
			segs = append(segs, h.Seg)
		}
	}
	if err := arr.done(); err != nil {
		return spatial.Line{}, err
	}
	l, err := spatial.NewLine(segs...)
	if err != nil {
		return spatial.Line{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return l, nil
}

// --- region ---

// EncodeRegion stores a region value with the three arrays of
// Section 4.1: halfsegments (ordered, for sweeps and equality), cycles
// and faces. The structural arrays use integer indices in place of
// pointers: each cycle record points at the start of its vertex run in a
// fourth array of ring vertices (rings are stored explicitly, which
// takes the role of the next-in-cycle chaining of halfsegment records),
// and each face record points at its first cycle; cycles of one face are
// contiguous.
func EncodeRegion(rg spatial.Region) Encoded {
	var root, hsArr, cycArr, faceArr, ringArr writer

	// Root record: summary data (Section 4.1).
	root.u32(uint32(rg.NumFaces()))
	root.u32(uint32(rg.NumCycles()))
	root.u32(uint32(rg.NumSegments()))
	root.f64(rg.Area())
	root.f64(rg.Perimeter())
	bb := rg.BBox()
	root.f64(bb.MinX)
	root.f64(bb.MinY)
	root.f64(bb.MaxX)
	root.f64(bb.MaxY)

	for _, h := range rg.HalfSegments() {
		writeHalfSegment(&hsArr, h)
	}

	ringOff := 0
	cycleIdx := 0
	writeCycle := func(c spatial.Cycle, hole bool) {
		verts := c.Vertices()
		cycArr.u32(uint32(ringOff))
		cycArr.u32(uint32(len(verts)))
		cycArr.boolv(hole)
		for _, v := range verts {
			ringArr.f64(v.X)
			ringArr.f64(v.Y)
		}
		ringOff += len(verts)
		cycleIdx++
	}
	for _, f := range rg.Faces() {
		faceArr.u32(uint32(cycleIdx))         // first cycle of the face
		faceArr.u32(uint32(1 + len(f.Holes))) // number of cycles
		writeCycle(f.Outer, false)
		for _, h := range f.Holes {
			writeCycle(h, true)
		}
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{hsArr.buf, cycArr.buf, faceArr.buf, ringArr.buf}}
}

// DecodeRegion reverses EncodeRegion. The face/cycle structure is
// rebuilt from the structural arrays; the halfsegment array is checked
// for consistency with the rebuilt value (it is the part sweeps and
// equality comparisons run on).
func DecodeRegion(e Encoded) (spatial.Region, error) {
	if len(e.Arrays) != 4 {
		return spatial.Region{}, fmt.Errorf("%w: region needs 4 arrays", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	nFaces := int(root.u32())
	nCycles := int(root.u32())
	nSegs := int(root.u32())
	for i := 0; i < 6; i++ {
		_ = root.f64() // summary (recomputed)
	}
	if err := root.done(); err != nil {
		return spatial.Region{}, err
	}

	// Ring vertices.
	ringPts, err := readRecords(e.Arrays[3], readPoint)
	if err != nil {
		return spatial.Region{}, err
	}

	// Cycles.
	type cycRec struct {
		off, n int
		hole   bool
	}
	const cycRecSize = 4 + 4 + 1
	if nCycles != len(e.Arrays[1])/cycRecSize {
		return spatial.Region{}, fmt.Errorf("%w: cycle count %d does not match array size", ErrCorrupt, nCycles)
	}
	cycles, err := readRecords(e.Arrays[1], func(r *reader) cycRec { return cycRec{off: int(r.u32()), n: int(r.u32()), hole: r.boolv()} })
	if err != nil {
		return spatial.Region{}, err
	}

	// Faces.
	faceR := reader{buf: e.Arrays[2]}
	if nFaces != len(faceR.buf)/8 {
		return spatial.Region{}, fmt.Errorf("%w: face count %d does not match array size", ErrCorrupt, nFaces)
	}
	faces := make([]spatial.Face, 0, nFaces)
	for i := 0; i < nFaces; i++ {
		first := int(faceR.u32())
		count := int(faceR.u32())
		if faceR.err != nil || first+count > len(cycles) || count < 1 {
			return spatial.Region{}, fmt.Errorf("%w: face %d cycle range", ErrCorrupt, i)
		}
		mk := func(c cycRec) (spatial.Cycle, error) {
			if c.off+c.n > len(ringPts) {
				return spatial.Cycle{}, fmt.Errorf("%w: ring range", ErrCorrupt)
			}
			return spatial.NewCycle(ringPts[c.off : c.off+c.n]...)
		}
		outer, err := mk(cycles[first])
		if err != nil || cycles[first].hole {
			return spatial.Region{}, fmt.Errorf("%w: face %d outer cycle: %v", ErrCorrupt, i, err)
		}
		holes := make([]spatial.Cycle, 0, count-1)
		for k := first + 1; k < first+count; k++ {
			h, err := mk(cycles[k])
			if err != nil || !cycles[k].hole {
				return spatial.Region{}, fmt.Errorf("%w: face %d hole cycle: %v", ErrCorrupt, i, err)
			}
			holes = append(holes, h)
		}
		f, err := spatial.NewFace(outer, holes...)
		if err != nil {
			return spatial.Region{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		faces = append(faces, f)
	}
	if err := faceR.done(); err != nil {
		return spatial.Region{}, err
	}
	rg, err := spatial.NewRegion(faces...)
	if err != nil {
		return spatial.Region{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Cross-check the halfsegment array against the rebuilt value.
	hsR := reader{buf: e.Arrays[0]}
	const hsRec = 4*8 + 1
	if 2*nSegs != len(hsR.buf)/hsRec || 2*nSegs != len(rg.HalfSegments()) {
		return spatial.Region{}, fmt.Errorf("%w: segment count %d inconsistent", ErrCorrupt, nSegs)
	}
	for i := 0; i < 2*nSegs; i++ {
		h, err := readHalfSegment(&hsR)
		if err != nil {
			return spatial.Region{}, err
		}
		if h != rg.HalfSegments()[i] {
			return spatial.Region{}, fmt.Errorf("%w: halfsegment array inconsistent at %d", ErrCorrupt, i)
		}
	}
	if err := hsR.done(); err != nil {
		return spatial.Region{}, err
	}
	return rg, nil
}

// --- intervals and periods ---

// intervalSize is one stored interval: start and end, then the left
// and right closure flags.
const intervalSize = 8 + 8 + 1 + 1

func putInterval(b []byte, iv temporal.Interval) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(float64(iv.Start)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(float64(iv.End)))
	b[16], b[17] = boolByte(iv.LC), boolByte(iv.RC)
}

// getInterval reads an interval record; ok is false unless both flag
// bytes are 0 or 1. Decoders check the interval itself where they use it
// (mapping.Validate, temporal.NewOrderedRange).
func getInterval(b []byte) (iv temporal.Interval, ok bool) {
	return temporal.Interval{
		Start: temporal.Instant(math.Float64frombits(binary.LittleEndian.Uint64(b))),
		End:   temporal.Instant(math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))),
		LC:    b[16] == 1,
		RC:    b[17] == 1,
	}, b[16] <= 1 && b[17] <= 1
}

func writeInterval(w *writer, iv temporal.Interval) { putInterval(w.grow(intervalSize), iv) }

func readInterval(r *reader) (temporal.Interval, error) {
	iv, ok := getInterval(r.next(intervalSize))
	if !ok && r.err == nil {
		r.err = fmt.Errorf("%w: closure flags at offset %d", ErrCorrupt, r.off-intervalSize)
	}
	return iv, r.err
}

// EncodePeriods stores a range(instant) value as the root count plus an
// array of ordered interval records.
func EncodePeriods(p temporal.Periods) Encoded {
	var root, arr writer
	root.u32(uint32(p.Len()))
	for _, iv := range p.Intervals() {
		writeInterval(&arr, iv)
	}
	return Encoded{Root: root.buf, Arrays: [][]byte{arr.buf}}
}

// DecodePeriods reverses EncodePeriods, re-validating canonicity.
func DecodePeriods(e Encoded) (temporal.Periods, error) {
	if len(e.Arrays) != 1 {
		return temporal.Periods{}, fmt.Errorf("%w: periods needs 1 array", ErrCorrupt)
	}
	root := reader{buf: e.Root}
	n := int(root.u32())
	if err := root.done(); err != nil {
		return temporal.Periods{}, err
	}
	arr := reader{buf: e.Arrays[0]}
	if n != len(arr.buf)/intervalSize {
		return temporal.Periods{}, fmt.Errorf("%w: interval count %d does not match array size", ErrCorrupt, n)
	}
	ivs := make([]temporal.Interval, 0, n)
	for i := 0; i < n; i++ {
		iv, err := readInterval(&arr)
		if err != nil {
			return temporal.Periods{}, err
		}
		ivs = append(ivs, iv)
	}
	if err := arr.done(); err != nil {
		return temporal.Periods{}, err
	}
	p, err := temporal.NewOrderedRange(ivs)
	if err != nil {
		return temporal.Periods{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, nil
}
