package moving

import (
	"context"
	"errors"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// longTrack builds a moving point with enough units that the ctx-aware
// kernels pass several cancellation checkpoints.
func longTrack(t *testing.T, n int) MPoint {
	t.Helper()
	samples := make([]Sample, 0, n+1)
	for i := 0; i <= n; i++ {
		// Alternate the y coordinate so adjacent units do not merge.
		samples = append(samples, Sample{T: temporal.Instant(i), P: geom.Pt(float64(i), float64(i%2))})
	}
	p, err := MPointFromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if p.M.Len() < n {
		t.Fatalf("track has %d units, want %d", p.M.Len(), n)
	}
	return p
}

func bigSquare(iv temporal.Interval) MRegion {
	r := spatial.MustPolygonRegion(spatial.Ring(-1, -1, 1e6, -1, 1e6, 1e6, -1, 1e6))
	return StaticMRegion(r, iv)
}

func TestInsideCtxCancelled(t *testing.T) {
	p := longTrack(t, 4*cancelCheckEvery)
	r := bigSquare(temporal.Closed(0, 1e9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.InsideCtx(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("InsideCtx err = %v, want context.Canceled", err)
	}
	zone := spatial.MustPolygonRegion(spatial.Ring(-1, -1, 10, -1, 10, 10, -1, 10))
	if _, err := p.InsideRegionCtx(ctx, zone); !errors.Is(err, context.Canceled) {
		t.Fatalf("InsideRegionCtx err = %v, want context.Canceled", err)
	}
	if _, err := r.IntersectsCtx(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("IntersectsCtx err = %v, want context.Canceled", err)
	}
	if _, err := r.AreaCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AreaCtx err = %v, want context.Canceled", err)
	}
	if _, err := p.InsideRegionCtx(ctx, spatial.Region{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("InsideRegionCtx on the empty region err = %v, want context.Canceled", err)
	}
}

func TestCtxVariantsMatchPlainOnes(t *testing.T) {
	p := longTrack(t, 100)
	r := bigSquare(temporal.Closed(0, 50))
	want := p.Inside(r)
	got, err := p.InsideCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("InsideCtx = %v, Inside = %v", got, want)
	}
	a, err := r.AreaCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != r.Area().String() {
		t.Errorf("AreaCtx disagrees with Area")
	}
}

// pollCtx counts the cancellation polls it receives and reports
// cancelled from the cancelAt-th poll on, so a test can cancel "in the
// middle" of a sweep deterministically.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// stepRegion is a moving region of n units that do not merge: a square
// that jumps between two sizes from unit to unit.
func stepRegion(n int) MRegion {
	us := make([]units.URegion, n)
	for i := range us {
		side := 10 + float64(i%2)
		r := spatial.MustPolygonRegion(spatial.Ring(0, 0, side, 0, side, side, 0, side))
		us[i] = staticURegion(r, temporal.RightHalfOpen(temporal.Instant(i), temporal.Instant(i+1)))
	}
	return MustMRegion(us...)
}

// TestStreamingSweepKeepsCancelCadence cancels InsideCtx, SometimesInside
// and IntersectsCtx in the middle of their refinement sweeps: the loops poll
// on every cancelCheckEvery-th common piece, so a context that turns cancelled
// after its k-th poll stops the sweep at piece (k−1)·cancelCheckEvery —
// within cancelCheckEvery pieces of the cancellation — having polled
// exactly k times. The fused walk counts the pieces it walks, not the
// pieces its kernel runs on: against a square the track reaches only in
// its last unit, every piece before that is refused by the stored boxes
// and the polls still fall on pieces 0, 64, 128, 192.
func TestStreamingSweepKeepsCancelCadence(t *testing.T) {
	n := 4 * cancelCheckEvery
	p := longTrack(t, n)
	sq := bigSquare(temporal.Closed(0, 1e9))
	x := float64(n)
	late := StaticMRegion(spatial.MustPolygonRegion(spatial.Ring(x-0.5, -1, x+10, -1, x+10, 2, x-0.5, 2)), temporal.Closed(0, 1e9))
	pb, lb := p.Bounds(), late.Bounds()
	steps := stepRegion(n)
	for _, k := range []int{1, 2, 4} {
		ctx := &pollCtx{Context: context.Background(), cancelAt: k}
		if _, err := p.InsideCtx(ctx, sq); !errors.Is(err, context.Canceled) || ctx.polls != k {
			t.Errorf("InsideCtx cancelled at poll %d: err = %v after %d polls", k, err, ctx.polls)
		}
		ctx = &pollCtx{Context: context.Background(), cancelAt: k}
		if hit, _, err := SometimesInside(ctx, p, &pb, late, &lb); hit || !errors.Is(err, context.Canceled) || ctx.polls != k {
			t.Errorf("SometimesInside cancelled at poll %d: %v, err = %v after %d polls", k, hit, err, ctx.polls)
		}
		ctx = &pollCtx{Context: context.Background(), cancelAt: k}
		if _, err := steps.IntersectsCtx(ctx, steps); !errors.Is(err, context.Canceled) || ctx.polls != k {
			t.Errorf("IntersectsCtx cancelled at poll %d: err = %v after %d polls", k, err, ctx.polls)
		}
	}
	// A context that is never cancelled is polled once per
	// cancelCheckEvery pieces the two values share, no more: the stretch
	// of the square's lifetime after the track ends is never visited.
	pieces := 0
	for _, ri := range temporal.Refine(p.M.Intervals(), sq.M.Intervals()) {
		if ri.A >= 0 && ri.B >= 0 {
			pieces++
		}
	}
	want := (pieces + cancelCheckEvery - 1) / cancelCheckEvery
	ctx := &pollCtx{Context: context.Background(), cancelAt: pieces}
	if _, err := p.InsideCtx(ctx, sq); err != nil || ctx.polls != want {
		t.Errorf("InsideCtx over %d common pieces: err = %v, %d polls, want %d", pieces, err, ctx.polls, want)
	}
	// The fused walk visits the same pieces when the only true one is the
	// last, and one piece — one poll — when the first one is true.
	ctx = &pollCtx{Context: context.Background(), cancelAt: pieces}
	if hit, v, err := SometimesInside(ctx, p, &pb, late, &lb); !hit || v != MayHold || err != nil || ctx.polls != want {
		t.Errorf("SometimesInside, true in the last of %d pieces: %v, verdict %d, err = %v, %d polls, want %d", pieces, hit, v, err, ctx.polls, want)
	}
	ctx = &pollCtx{Context: context.Background(), cancelAt: pieces}
	sb := sq.Bounds()
	if hit, _, err := SometimesInside(ctx, p, &pb, sq, &sb); !hit || err != nil || ctx.polls != 1 {
		t.Errorf("SometimesInside, true in the first piece: %v, err = %v, %d polls, want 1", hit, err, ctx.polls)
	}
}
