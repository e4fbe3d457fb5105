package units

import (
	"fmt"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

// MCycle is a moving cycle: a ring of moving vertices. Consecutive ring
// vertices span the moving segments (MSeg values) of the cycle; storing
// the ring rather than a bag of moving segments keeps the cycle
// structure explicit, which is exactly the extra structure the uregion
// data structure records with its mcycles subarray (Section 4.2).
type MCycle []MPoint

// Eval returns the vertex ring at time t.
func (c MCycle) Eval(t temporal.Instant) []geom.Point {
	out := make([]geom.Point, 0, len(c))
	for _, m := range c {
		out = append(out, m.Eval(t))
	}
	return out
}

// MFace is a moving face: an outer moving cycle with moving hole cycles
// (the MFace carrier set of Section 3.2.6).
type MFace struct {
	Outer MCycle
	Holes []MCycle
}

// URegion is the uregion unit type (Section 3.2.6): a set of moving
// faces whose evaluation is a valid region value at every instant of the
// open unit interval. Degeneracies (vertex collapses, overlapping
// boundary pieces) are permitted exactly at closed interval end points
// and are cleaned up by EvalBoundary.
type URegion struct {
	Iv    temporal.Interval
	Faces []MFace
}

// NewURegion validates the uregion carrier set constraints and returns
// the unit. As for uline, the for-all-instants condition is decided at
// the critical instants of all moving segment pairs plus one sample
// between consecutive critical instants; at each such instant the full
// static region validation runs.
func NewURegion(iv temporal.Interval, faces ...MFace) (URegion, error) {
	u := URegionUnchecked(iv, faces)
	if err := u.Validate(); err != nil {
		return URegion{}, err
	}
	return u, nil
}

// MustURegion is like NewURegion but panics on invalid input.
func MustURegion(iv temporal.Interval, faces ...MFace) URegion {
	u, err := NewURegion(iv, faces...)
	if err != nil {
		panic(err)
	}
	return u
}

// URegionUnchecked builds the unit without validation, for trusted
// construction paths such as workload generators.
func URegionUnchecked(iv temporal.Interval, faces []MFace) URegion {
	fs := make([]MFace, len(faces))
	copy(fs, faces)
	return URegion{Iv: iv, Faces: fs}
}

// Interval returns the unit interval.
func (u URegion) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same moving faces on a different
// (sub-)interval.
func (u URegion) WithInterval(iv temporal.Interval) URegion {
	return URegion{Iv: iv, Faces: u.Faces}
}

// EqualFunc reports whether two units carry the same moving faces.
func (u URegion) EqualFunc(v URegion) bool {
	if len(u.Faces) != len(v.Faces) {
		return false
	}
	for i := range u.Faces {
		if !slices.Equal(u.Faces[i].Outer, v.Faces[i].Outer) {
			return false
		}
		if len(u.Faces[i].Holes) != len(v.Faces[i].Holes) {
			return false
		}
		for j := range u.Faces[i].Holes {
			if !slices.Equal(u.Faces[i].Holes[j], v.Faces[i].Holes[j]) {
				return false
			}
		}
	}
	return true
}

// ring returns the face's outer cycle for c = −1 and its hole c
// otherwise: the kernels that walk the rings themselves go c = −1 to
// len(Holes) − 1, the outer cycle before the holes, as MSegCursor does.
func (f *MFace) ring(c int) MCycle {
	if c < 0 {
		return f.Outer
	}
	return f.Holes[c]
}

// MSegCursor walks the moving segments of a uregion in place: face by
// face, the outer cycle before the holes, each cycle as the segments
// spanned by consecutive ring vertices. The unit stores rings of moving
// vertices (Section 4.2), so the kernels read the segments off the rings
// instead of materialising them per call.
type MSegCursor struct {
	faces []MFace
	ring  MCycle // the cycle being walked
	f, c  int    // face of ring; cycle after ring in that face (0 outer, k hole k−1)
	i     int    // next vertex of ring
}

// MSegs starts a walk over every moving segment of the unit.
func (u URegion) MSegs() MSegCursor { return MSegCursor{faces: u.Faces} }

// Next returns the next moving segment; ok is false after the last one.
func (it *MSegCursor) Next() (g MSeg, ok bool) {
	for it.i == len(it.ring) {
		if it.f == len(it.faces) {
			return MSeg{}, false
		}
		face := &it.faces[it.f]
		switch {
		case it.c == 0:
			it.ring = face.Outer
		case it.c <= len(face.Holes):
			it.ring = face.Holes[it.c-1]
		default:
			it.f, it.c, it.ring, it.i = it.f+1, 0, nil, 0
			continue
		}
		it.c, it.i = it.c+1, 0
	}
	s := it.ring[it.i]
	if it.i++; it.i < len(it.ring) {
		return MSeg{S: s, E: it.ring[it.i]}, true
	}
	return MSeg{S: s, E: it.ring[0]}, true
}

// NumMSegs returns the total number of moving segments.
func (u URegion) NumMSegs() int {
	n := 0
	for _, f := range u.Faces {
		n += len(f.Outer)
		for _, h := range f.Holes {
			n += len(h)
		}
	}
	return n
}

// Validate re-checks the uregion carrier set constraints: rings of at
// least three vertices, non-rotating moving segments, and a valid region
// value at every instant of the open interval.
func (u URegion) Validate() error {
	if len(u.Faces) == 0 {
		return fmt.Errorf("%w: uregion needs at least one face", ErrInvalidUnit)
	}
	for _, f := range u.Faces {
		if len(f.Outer) < 3 {
			return fmt.Errorf("%w: moving cycle with %d vertices", ErrInvalidUnit, len(f.Outer))
		}
		for _, h := range f.Holes {
			if len(h) < 3 {
				return fmt.Errorf("%w: moving cycle with %d vertices", ErrInvalidUnit, len(h))
			}
		}
	}
	// The pairwise check below needs the segments indexable.
	msegs := make([]MSeg, 0, u.NumMSegs())
	it := u.MSegs()
	for g, more := it.Next(); more; g, more = it.Next() {
		if g.S == g.E {
			return fmt.Errorf("%w: identical endpoint motions in moving cycle", ErrInvalidUnit)
		}
		if !g.Coplanar() {
			return fmt.Errorf("%w: rotating moving segment %v", ErrInvalidUnit, g)
		}
		msegs = append(msegs, g)
	}
	// Critical instants of all pairs; validity is constant in between.
	var critical []float64
	for i := 0; i < len(msegs); i++ {
		if t, ok, _ := msegs[i].DegenerateTimes(); ok {
			critical = append(critical, t)
		}
		for j := i + 1; j < len(msegs); j++ {
			critical, _ = appendCriticalTimes(critical, msegs[i], msegs[j])
		}
	}
	for _, t := range criticalSamples(u.Iv, critical) {
		if _, err := u.evalChecked(t); err != nil {
			return fmt.Errorf("%w: invalid region at t=%v: %v", ErrInvalidUnit, t, err)
		}
	}
	return nil
}

// evalChecked builds the region value at time t with full validation.
func (u URegion) evalChecked(t temporal.Instant) (spatial.Region, error) {
	faces := make([]spatial.Face, 0, len(u.Faces))
	for _, f := range u.Faces {
		oc, err := spatial.NewCycle(f.Outer.Eval(t)...)
		if err != nil {
			return spatial.Region{}, err
		}
		holes := make([]spatial.Cycle, 0, len(f.Holes))
		for _, h := range f.Holes {
			hc, err := spatial.NewCycle(h.Eval(t)...)
			if err != nil {
				return spatial.Region{}, err
			}
			holes = append(holes, hc)
		}
		face, err := spatial.NewFace(oc, holes...)
		if err != nil {
			return spatial.Region{}, err
		}
		faces = append(faces, face)
	}
	r, err := spatial.NewRegion(faces...)
	if err != nil {
		return spatial.Region{}, err
	}
	return r, nil
}

// Eval is the ι function for inner instants: the region value at time t,
// assembled through the trusted constructors (validity inside the open
// interval is guaranteed by the unit invariant). This is the
// uregion_atinstant subalgorithm of Section 5.1.
func (u URegion) Eval(t temporal.Instant) spatial.Region {
	faces := make([]spatial.Face, 0, len(u.Faces))
	for _, f := range u.Faces {
		oc := spatial.CycleUnchecked(f.Outer.Eval(t))
		holes := make([]spatial.Cycle, 0, len(f.Holes))
		for _, h := range f.Holes {
			holes = append(holes, spatial.CycleUnchecked(h.Eval(t)))
		}
		faces = append(faces, spatial.FaceUnchecked(oc, holes))
	}
	return spatial.RegionUnchecked(faces)
}

// EvalBoundary evaluates the unit at an end point of its interval,
// applying the ι_s/ι_e cleanup of Section 3.2.6: degenerated segments
// are dropped, collinear overlapping boundary pieces cancel by the
// odd/even fragment rule, and the face/cycle structure is rebuilt with
// the region close operation.
func (u URegion) EvalBoundary(t temporal.Instant) (spatial.Region, error) {
	raw := make([]geom.Segment, 0, u.NumMSegs())
	it := u.MSegs()
	for g, more := it.Next(); more; g, more = it.Next() {
		if s, ok := g.EvalSeg(t); ok {
			raw = append(raw, s)
		}
	}
	return spatial.Close(spatial.OddParityFragments(raw))
}

// EvalAt dispatches to Eval or EvalBoundary according to the position of
// t in the unit interval, implementing the extended semantics f_u of
// Section 3.2.6.
func (u URegion) EvalAt(t temporal.Instant) (spatial.Region, bool) {
	if !u.Iv.Contains(t) {
		return spatial.Region{}, false
	}
	if !u.Iv.IsDegenerate() && (t == u.Iv.Start || t == u.Iv.End) {
		r, err := u.EvalBoundary(t)
		if err != nil {
			// A validated unit cleans up to a valid (possibly empty)
			// region; a failure here indicates an unchecked unit.
			return spatial.Region{}, false
		}
		return r, true
	}
	return u.Eval(t), true
}

// Cube returns the 3D bounding cube over the unit interval: the motion
// is linear, so the box of every moving vertex at the two interval ends
// bounds the unit. It is recomputed from the vertices on each call and
// allocates nothing.
func (u URegion) Cube() geom.Cube {
	r := geom.EmptyRect()
	for _, f := range u.Faces {
		r = extendRing(r, f.Outer, u.Iv)
		for _, h := range f.Holes {
			r = extendRing(r, h, u.Iv)
		}
	}
	return geom.Cube{Rect: r, MinT: float64(u.Iv.Start), MaxT: float64(u.Iv.End)}
}

func extendRing(r geom.Rect, c MCycle, iv temporal.Interval) geom.Rect {
	for _, m := range c {
		r = r.ExtendPoint(m.Eval(iv.Start)).ExtendPoint(m.Eval(iv.End))
	}
	return r
}

// String renders the unit.
func (u URegion) String() string {
	return fmt.Sprintf("%v ↦ %d mfaces (%d msegs)", u.Iv, len(u.Faces), u.NumMSegs())
}
