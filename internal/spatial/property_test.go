package spatial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"movingdb/internal/geom"
)

// randomNestedRegion builds a random region with nesting: an outer
// square grid of faces, some with holes, some holes with islands. All
// coordinates are integers, so the construction is numerically exact.
func randomNestedRegion(rng *rand.Rand) Region {
	var faces []Face
	nf := 1 + rng.Intn(3)
	for f := 0; f < nf; f++ {
		x := float64(f * 20)
		outer := MustCycle(sq(x, 0, 10)...)
		var holes []Cycle
		nh := rng.Intn(3)
		for h := 0; h < nh; h++ {
			hx := x + 1 + float64(h*3)
			holes = append(holes, MustCycle(sq(hx, 1, 2)...))
		}
		faces = append(faces, MustFace(outer, holes...))
		// Occasionally an island inside the first hole.
		if nh > 0 && rng.Intn(2) == 0 {
			faces = append(faces, MustFace(MustCycle(sq(x+1.5, 1.5, 1)...)))
		}
	}
	return MustRegion(faces...)
}

func TestClosePropertyRoundTrip(t *testing.T) {
	// For any valid region, Close over its segment soup must rebuild an
	// equal value — the unique-representation guarantee of the close
	// operation.
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 50; trial++ {
		r := randomNestedRegion(rng)
		back, err := Close(r.Segments())
		if err != nil {
			t.Fatalf("trial %d: Close failed: %v\n%v", trial, err, r)
		}
		if !back.Equal(r) {
			t.Fatalf("trial %d: round trip differs:\n%v\n%v", trial, back, r)
		}
	}
}

func TestCloseAgreesWithMembership(t *testing.T) {
	// Close must preserve point membership everywhere, probed on a grid.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		r := randomNestedRegion(rng)
		back, err := Close(r.Segments())
		if err != nil {
			t.Fatal(err)
		}
		for x := -1.5; x < 65; x += 2.37 {
			for y := -1.5; y < 12; y += 1.13 {
				p := geom.Pt(x, y)
				if r.ContainsPoint(p) != back.ContainsPoint(p) {
					t.Fatalf("membership differs at %v", p)
				}
			}
		}
	}
}

func TestMergeLineCoverageProperty(t *testing.T) {
	// MergeLine preserves the covered point set: any point on an input
	// segment is on some output segment and vice versa (probed at
	// parameter samples).
	f := func(raw []int8) bool {
		var segs []geom.Segment
		for k := 0; k+3 < len(raw); k += 4 {
			p := geom.Pt(float64(raw[k]%8), float64(raw[k+1]%8))
			q := geom.Pt(float64(raw[k+2]%8), float64(raw[k+3]%8))
			if p == q {
				continue
			}
			segs = append(segs, geom.MustSegment(p, q))
		}
		if len(segs) == 0 {
			return true
		}
		merged := MergeLine(segs...)
		// Sample points on inputs must be covered by the merge.
		for _, s := range segs {
			for _, frac := range []float64{0, 0.33, 0.5, 1} {
				p := s.Left.Add(s.Dir().Scale(frac))
				if !merged.ContainsPoint(p) {
					return false
				}
			}
		}
		// Sample points on outputs must be covered by some input.
		for _, s := range merged.Segments() {
			for _, frac := range []float64{0.25, 0.75} {
				p := s.Left.Add(s.Dir().Scale(frac))
				covered := false
				for _, in := range segs {
					if in.Contains(p) {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return merged.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegionAreaMatchesMonteCarlo(t *testing.T) {
	// The shoelace area of a random nested region agrees with Monte
	// Carlo point sampling — ties ContainsPoint and Area together.
	rng := rand.New(rand.NewSource(7))
	r := randomNestedRegion(rng)
	bb := r.BBox()
	const samples = 200000
	in := 0
	for i := 0; i < samples; i++ {
		p := geom.Pt(
			bb.MinX+rng.Float64()*(bb.MaxX-bb.MinX),
			bb.MinY+rng.Float64()*(bb.MaxY-bb.MinY),
		)
		if r.ContainsPoint(p) {
			in++
		}
	}
	est := float64(in) / samples * (bb.MaxX - bb.MinX) * (bb.MaxY - bb.MinY)
	if rel := math.Abs(est-r.Area()) / r.Area(); rel > 0.03 {
		t.Errorf("Monte Carlo area %.1f vs exact %.1f (rel %.3f)", est, r.Area(), rel)
	}
}

func TestOddParityFragments(t *testing.T) {
	// Two identical segments cancel.
	out := OddParityFragments([]geom.Segment{geom.Seg(0, 0, 4, 0), geom.Seg(0, 0, 4, 0)})
	if len(out) != 0 {
		t.Errorf("duplicate cancellation failed: %v", out)
	}
	// The paper's example: (p,q) overlaps (r,s) with order p<r<q<s →
	// fragments (p,r) and (q,s) survive, (r,q) cancels.
	out = OddParityFragments([]geom.Segment{geom.Seg(0, 0, 4, 0), geom.Seg(2, 0, 6, 0)})
	if len(out) != 2 || out[0] != geom.Seg(0, 0, 2, 0) || out[1] != geom.Seg(4, 0, 6, 0) {
		t.Errorf("fragment rule = %v", out)
	}
	// Triple cover: odd in the middle.
	out = OddParityFragments([]geom.Segment{
		geom.Seg(0, 0, 6, 0), geom.Seg(1, 0, 5, 0), geom.Seg(2, 0, 4, 0),
	})
	// Coverage: [0,1):1 [1,2):2 [2,4):3 [4,5):2 [5,6]:1 → keep [0,1], [2,4], [5,6].
	want := []geom.Segment{geom.Seg(0, 0, 1, 0), geom.Seg(2, 0, 4, 0), geom.Seg(5, 0, 6, 0)}
	if len(out) != 3 || out[0] != want[0] || out[1] != want[1] || out[2] != want[2] {
		t.Errorf("triple cover = %v", out)
	}
	// Distinct lines pass through.
	out = OddParityFragments([]geom.Segment{geom.Seg(0, 0, 1, 0), geom.Seg(0, 1, 1, 1)})
	if len(out) != 2 {
		t.Errorf("distinct lines = %v", out)
	}
	// Adjacent surviving fragments merge into maximal segments.
	out = OddParityFragments([]geom.Segment{geom.Seg(0, 0, 2, 0), geom.Seg(2, 0, 4, 0)})
	if len(out) != 1 || out[0] != geom.Seg(0, 0, 4, 0) {
		t.Errorf("adjacent merge = %v", out)
	}
}
