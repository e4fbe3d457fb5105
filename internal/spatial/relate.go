package spatial

import (
	"movingdb/internal/geom"
)

// This file provides the binary operations between the spatial types
// that the system calls: intersects between regions and the clipping of
// a line to a region. The implementations are straightforward O(n·m)
// pair scans with bounding box rejection — the paper's Section 5 defers
// sweep-based algorithmics, and these operations are not on the
// complexity-claim path.

// IntersectsRegion reports whether two regions share at least one point
// (boundary or interior).
func (r Region) IntersectsRegion(q Region) bool {
	if !r.bbox.Intersects(q.bbox) {
		return false
	}
	// Any boundary crossing means intersection.
	for _, h := range r.hs {
		if !h.LeftDom {
			continue
		}
		for _, g := range q.hs {
			if !g.LeftDom {
				continue
			}
			if k, _ := geom.Intersect(h.Seg, g.Seg); k != geom.IntersectNone {
				return true
			}
		}
	}
	// No crossings: one may contain the other entirely.
	if len(r.hs) > 0 && q.ContainsPoint(r.hs[0].Seg.Left) {
		return true
	}
	if len(q.hs) > 0 && r.ContainsPoint(q.hs[0].Seg.Left) {
		return true
	}
	return false
}

// overlapEnds returns the ends of the stretch two overlapping collinear
// segments share.
func overlapEnds(a, b geom.Segment) []geom.Point {
	lo := a.Left
	if lo.Less(b.Left) {
		lo = b.Left
	}
	hi := a.Right
	if b.Right.Less(hi) {
		hi = b.Right
	}
	return []geom.Point{lo, hi}
}

// ClippedToRegion returns the parts of the line inside the region, as a
// line value: each segment is split at its boundary crossings and the
// inside fragments are kept.
func (l Line) ClippedToRegion(r Region) Line {
	if !l.bbox.Intersects(r.bbox) {
		return Line{}
	}
	boundary := geom.SegmentsOf(r.hs)
	var out []geom.Segment
	for _, h := range l.hs {
		if !h.LeftDom {
			continue
		}
		out = append(out, clipSegment(h.Seg, boundary, r)...)
	}
	return MergeLine(out...)
}

func clipSegment(s geom.Segment, boundary []geom.Segment, r Region) []geom.Segment {
	// Collect crossing parameters along s.
	d := s.Dir()
	params := []float64{0, 1}
	for _, b := range boundary {
		if k, p := geom.Intersect(s, b); k == geom.IntersectPoint {
			t := p.Sub(s.Left).Dot(d) / d.Dot(d)
			params = append(params, max(0, min(1, t)))
		} else if k == geom.IntersectOverlap {
			for _, e := range overlapEnds(s, b) {
				t := e.Sub(s.Left).Dot(d) / d.Dot(d)
				params = append(params, max(0, min(1, t)))
			}
		}
	}
	sortFloats(params)
	var out []geom.Segment
	for i := 0; i+1 < len(params); i++ {
		lo, hi := params[i], params[i+1]
		if hi-lo < 1e-12 {
			continue
		}
		mid := s.Left.Add(d.Scale((lo + hi) / 2))
		if !r.ContainsPoint(mid) {
			continue
		}
		p := s.Left.Add(d.Scale(lo))
		q := s.Left.Add(d.Scale(hi))
		if seg, err := geom.NewSegment(p, q); err == nil {
			out = append(out, seg)
		}
	}
	return out
}

func sortFloats(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
