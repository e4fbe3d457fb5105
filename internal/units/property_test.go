package units

import (
	"math/rand"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
)

// These tests verify that the exact (root-analysis based) validation of
// the spatial unit types agrees with dense time sampling: a unit
// accepted by NewX must satisfy the static carrier set constraints at
// every sampled inner instant, and a unit rejected must violate them at
// some instant (when the rejection stems from the for-all-instants
// condition).

func randMotion(rng *rand.Rand) MPoint {
	return MPoint{
		X0: float64(rng.Intn(21) - 10), X1: float64(rng.Intn(7) - 3),
		Y0: float64(rng.Intn(21) - 10), Y1: float64(rng.Intn(7) - 3),
	}
}

func TestUPointsValidationAgreesWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const trials = 400
	accepted, rejected := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		ms := make([]MPoint, n)
		for i := range ms {
			ms[i] = randMotion(rng)
		}
		interval := iv(0, 10)
		u, err := NewUPoints(interval, ms...)
		coincide := func(tt temporal.Instant) bool {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if ms[i].Eval(tt) == ms[j].Eval(tt) {
						return true
					}
				}
			}
			return false
		}
		if err == nil {
			accepted++
			for k := 1; k < 100; k++ {
				tt := temporal.Instant(10 * float64(k) / 100)
				if coincide(tt) {
					t.Fatalf("trial %d: accepted unit %v has coinciding points at %v", trial, u, tt)
				}
			}
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate trial mix: %d accepted, %d rejected", accepted, rejected)
	}
}

func TestULineValidationAgreesWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 300
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		// Build 2–3 translating (hence coplanar) random segments.
		n := 2 + rng.Intn(2)
		ms := make([]MSeg, 0, n)
		for i := 0; i < n; i++ {
			p := geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
			q := geom.Pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
			if p == q {
				q.X++
			}
			vx, vy := float64(rng.Intn(5)-2), float64(rng.Intn(5)-2)
			ms = append(ms, MSeg{
				S: MPoint{X0: p.X, X1: vx, Y0: p.Y, Y1: vy},
				E: MPoint{X0: q.X, X1: vx, Y0: q.Y, Y1: vy},
			})
		}
		interval := iv(0, 8)
		_, err := NewULine(interval, ms...)
		if err != nil {
			continue
		}
		accepted++
		// Dense sampling: evaluated segments must never be collinear
		// overlapping inside the open interval.
		for k := 1; k < 64; k++ {
			tt := temporal.Instant(8 * float64(k) / 64)
			for i := 0; i < len(ms); i++ {
				si, ok1 := ms[i].EvalSeg(tt)
				if !ok1 {
					t.Fatalf("trial %d: accepted uline degenerates at %v", trial, tt)
				}
				for j := i + 1; j < len(ms); j++ {
					sj, _ := ms[j].EvalSeg(tt)
					if geom.Collinear(si, sj) && geom.Overlap(si, sj) {
						t.Fatalf("trial %d: accepted uline overlaps at %v", trial, tt)
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no trial accepted; generator too hostile")
	}
}

func TestInsideKernelAgreesWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		// Random translating convex-ish quad region and a random moving
		// point.
		cx, cy := float64(rng.Intn(20)), float64(rng.Intn(20))
		w := 4 + float64(rng.Intn(6))
		ring := []geom.Point{
			geom.Pt(cx, cy), geom.Pt(cx+w, cy), geom.Pt(cx+w, cy+w), geom.Pt(cx, cy+w),
		}
		vx, vy := float64(rng.Intn(5)-2), float64(rng.Intn(5)-2)
		mc := make(MCycle, 0, 4)
		for _, p := range ring {
			mc = append(mc, MPoint{X0: p.X, X1: vx, Y0: p.Y, Y1: vy})
		}
		ur := MustURegion(iv(0, 10), MFace{Outer: mc})
		up := UPoint{Iv: iv(0, 10), M: randMotion(rng)}

		pieces := UPointInsideURegion(nil, up, ur)
		// Coverage: the pieces partition [0,10].
		var dur float64
		for _, p := range pieces {
			dur += p.Iv.Duration()
		}
		if dur < 10-1e-9 {
			t.Fatalf("trial %d: pieces cover %v of 10: %v", trial, dur, pieces)
		}
		// Sampled agreement away from piece boundaries.
		for k := 0; k <= 500; k++ {
			tt := temporal.Instant(10 * (float64(k) + 0.31) / 501)
			want := pointInRegionAt(up.M, ur, tt)
			var got, found bool
			for _, p := range pieces {
				if p.Iv.Contains(tt) {
					got, found = p.V, true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: instant %v not covered", trial, tt)
			}
			// Skip instants within epsilon of a boundary crossing (the
			// plumbline and the kernel may disagree exactly on the
			// boundary, where both answers are defensible).
			nearBoundary := false
			for _, p := range pieces {
				if absf(float64(p.Iv.Start)-float64(tt)) < 1e-6 || absf(float64(p.Iv.End)-float64(tt)) < 1e-6 {
					nearBoundary = true
				}
			}
			if !nearBoundary && got != want {
				t.Fatalf("trial %d t=%v: kernel %v, plumbline %v (pieces %v)", trial, tt, got, want, pieces)
			}
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
