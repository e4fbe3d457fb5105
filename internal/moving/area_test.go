package moving_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// FuzzAreaExtremaMatchBuilt holds AreaMaxCtx and AreaMinCtx, which fold
// the area's units without building the moving real, to Area().Max()
// and Area().Min(): the same value bit for bit and the same ok. The fold
// must join adjacent units with equal quadratics as Builder does, since
// a merged unit's interior vertex is a candidate extremum that neither
// half has. The fuzz input spells a square storm unit by unit
// (decodeStorm); the workload storms and fuzzRegions' table are checked
// on every run.
func FuzzAreaExtremaMatchBuilt(f *testing.F) {
	n := func(v int8) byte { return byte(v) } // a negative velocity
	for _, raw := range [][]byte{
		{},                                       // the empty moving region
		{4, 0, 0, 0, 4, 0, 0, 0},                 // a static storm: one unit after the builder's merge
		{2, 5, 0, 0, 2, 0, 5, 0, 2, n(-3), 2, 0}, // translated units: distinct motions, one constant area
		{2, 1, 0, 3, 2, 0, 1, 3, 2, n(-1), n(-1), 3},      // translated and growing alike: equal quadratics
		{2, 1, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0},              // a degenerate unit between equal areas: all three merge
		{2, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 2, 0, 0, 2},  // degenerate units in a row
		{0x12, 1, 1, 2, 0x12, 1, 1, n(-2), 0x02, 0, 0, 0}, // holes, and a unit that loses its hole
		{7, 0, 0, n(-20), 7, 0, 0, 20},                    // shrinks through a point and grows back
		{0x0a, 3, 0, 1, 0x0a, 3, 0, 1, 3, 0, 0, 0},        // gaps: equal quadratics that must not merge
	} {
		f.Add(raw)
	}
	for name, r := range map[string]moving.MRegion{
		"storm":          fuzzRegions()[0],
		"storm with eye": fuzzRegions()[1],
		"eye, 8 units":   fuzzRegions()[2],
		"static square":  fuzzRegions()[3],
		"unbounded":      fuzzRegions()[4],
		"empty":          fuzzRegions()[5],
		// Two shapes of one area over (-∞, 0) and [0, +∞]: the units
		// merge, and the merged unit's only candidates are its infinite
		// ends, where the constant area is the limit.
		"unbounded, two shapes": moving.MRegion{M: mapping.Must(
			staticUnit(temporal.RightHalfOpen(temporal.NegInf, 0), 480, 480, 520, 520),
			staticUnit(temporal.Closed(0, temporal.PosInf), 490, 460, 510, 540),
		)},
	} {
		if msg := areaExtremaMismatch(r); msg != "" {
			f.Fatalf("%s: %s", name, msg)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*64 {
			t.Skip()
		}
		r, ok := decodeStorm(raw)
		if !ok {
			t.Skip()
		}
		if msg := areaExtremaMismatch(r); msg != "" {
			t.Fatalf("%s\nstorm %v", msg, r)
		}
	})
}

// areaExtremaMismatch describes how the fused extrema of r differ from
// those of the built moving real, "" when they agree bit for bit.
func areaExtremaMismatch(r moving.MRegion) string {
	ctx := context.Background()
	area := r.Area()
	for _, c := range []struct {
		name  string
		fused func(context.Context) (float64, bool, error)
		built func() (float64, temporal.Instant, bool)
	}{
		{"max", r.AreaMaxCtx, area.Max},
		{"min", r.AreaMinCtx, area.Min},
	} {
		got, gotOK, err := c.fused(ctx)
		want, _, wantOK := c.built()
		if err != nil || gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("%s: fused %v, %v, %v; built %v, %v; over %v", c.name, got, gotOK, err, want, wantOK, area)
		}
	}
	return ""
}

// staticUnit is the rectangle [x1, x2] × [y1, y2] at rest over iv.
func staticUnit(iv temporal.Interval, x1, y1, x2, y2 float64) units.URegion {
	ring := units.MCycle{{X0: x1, Y0: y1}, {X0: x2, Y0: y1}, {X0: x2, Y0: y2}, {X0: x1, Y0: y2}}
	return units.URegionUnchecked(iv, []units.MFace{{Outer: ring}})
}

// decodeStorm turns fuzz bytes into a moving square storm centred at
// (500, 500) with half-side 40 at time 0. Four bytes per unit: flags
// (bits 0–2 the duration in half time units, 0 for a degenerate unit
// [t, t]; bit 3 a gap of one time unit before the unit; bit 4 a square
// hole of half the size), then the centre's velocity in x and y and the
// half-side's rate of growth, as signed bytes per time unit. Each unit
// starts where the previous one ended, and consecutive units with the
// same motion merge in the builder.
func decodeStorm(raw []byte) (moving.MRegion, bool) {
	corners := [4][2]float64{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
	cx, cy, h := 500.0, 500.0, 40.0
	t, taken := 0.0, false // taken: a degenerate unit closed the previous end
	var bld mapping.Builder[units.URegion]
	for k := 0; k+3 < len(raw); k += 4 {
		flags := raw[k]
		vx, vy, g := float64(int8(raw[k+1])), float64(int8(raw[k+2])), float64(int8(raw[k+3]))
		dur := float64(flags&0x07) / 2
		if flags&0x08 != 0 || (dur == 0 && taken) {
			t, taken = t+1, false
		}
		ring := func(scale float64) units.MCycle {
			mc := make(units.MCycle, len(corners))
			for i, c := range corners {
				x1, y1 := vx+c[0]*g*scale, vy+c[1]*g*scale
				mc[i] = units.MPoint{X0: cx + c[0]*h*scale - x1*t, X1: x1, Y0: cy + c[1]*h*scale - y1*t, Y1: y1}
			}
			return mc
		}
		face := units.MFace{Outer: ring(1)}
		if flags&0x10 != 0 {
			face.Holes = []units.MCycle{ring(0.5)}
		}
		iv := temporal.Interval{Start: temporal.Instant(t), End: temporal.Instant(t + dur), LC: !taken, RC: dur == 0}
		bld.Append(units.URegionUnchecked(iv, []units.MFace{face}))
		cx, cy, h = cx+vx*dur, cy+vy*dur, h+g*dur
		t, taken = t+dur, dur == 0
	}
	m, err := bld.Build()
	return moving.MRegion{M: m}, err == nil
}
