package workload

import (
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
)

func TestDeterminism(t *testing.T) {
	a := New(42).RandomTrajectory(0, 50, 10, 2)
	b := New(42).RandomTrajectory(0, 50, 10, 2)
	if a.M.Len() != b.M.Len() {
		t.Fatal("unit counts differ for equal seeds")
	}
	for i := range a.M.Units() {
		if a.M.Units()[i] != b.M.Units()[i] {
			t.Fatalf("unit %d differs for equal seeds", i)
		}
	}
	c := New(43).RandomTrajectory(0, 50, 10, 2)
	if a.AtInstant(100) == c.AtInstant(100) {
		t.Error("different seeds produced identical positions (suspicious)")
	}
}

func TestRandomTrajectoryShape(t *testing.T) {
	p := New(1).RandomTrajectory(5, 100, 10, 2)
	if p.M.Len() != 100 {
		t.Fatalf("units = %d", p.M.Len())
	}
	if err := p.M.Validate(); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	dt := p.DefTime()
	lo, _ := dt.Min()
	hi, _ := dt.Max()
	if lo != 5 || hi != 5+100*10 {
		t.Errorf("deftime = %v", dt)
	}
	// Stays inside the world (with reflection).
	for k := 0; k <= 200; k++ {
		tt := temporal.Instant(5 + float64(k)*5)
		pos := p.AtInstant(tt)
		if !pos.Defined() {
			t.Fatalf("undefined at %v", tt)
		}
		if pos.P.X < -1 || pos.P.X > WorldSize+1 || pos.P.Y < -1 || pos.P.Y > WorldSize+1 {
			t.Fatalf("escaped the world at %v: %v", tt, pos)
		}
	}
	// Speed bounded by maxSpeed (linear legs).
	if mx, _, ok := p.Speed().Max(); !ok || mx > 2*1.42 {
		// reflection can fold a leg, slightly shortening it but never
		// lengthening; the bound is maxSpeed (with slack for the fold).
		t.Errorf("speed max = %v", mx)
	}
}

func TestFlights(t *testing.T) {
	fs := New(7).Flights(30, 100)
	if len(fs) != 30 {
		t.Fatalf("flights = %d", len(fs))
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f.ID] {
			t.Errorf("duplicate flight id %s", f.ID)
		}
		seen[f.ID] = true
		if err := f.Flight.M.Validate(); err != nil {
			t.Fatalf("invalid flight mapping: %v", err)
		}
		if f.Flight.Length() <= 0 {
			t.Error("zero-length flight")
		}
		// Departure within the spread.
		first, ok := f.Flight.Initial()
		if !ok || first.Inst < 0 || first.Inst > 100 {
			t.Errorf("departure = %v", first.Inst)
		}
	}
}

func TestStarRing(t *testing.T) {
	g := New(3)
	ring := g.StarRing(geom.Pt(100, 100), 50, 16)
	if len(ring) != 16 {
		t.Fatalf("ring size = %d", len(ring))
	}
	// The ring must be a valid simple polygon (the cycle carrier set).
	if _, err := spatial.NewCycle(ring...); err != nil {
		t.Fatalf("star ring not a simple cycle: %v", err)
	}
}

func TestStormValid(t *testing.T) {
	g := New(5)
	storm := g.Storm(0, 30, 12, 10)
	if storm.M.Len() != 30 {
		t.Fatalf("units = %d", storm.M.Len())
	}
	if err := storm.M.Validate(); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	// Every unit passes the full carrier set validation (the generator
	// is trusted in production; verify the trust is warranted).
	for i, u := range storm.M.Units() {
		if err := u.Validate(); err != nil {
			t.Fatalf("unit %d invalid: %v", i, err)
		}
	}
	// Snapshots across the lifetime are valid regions with positive
	// area and continuous area development.
	area := storm.Area()
	prev := -1.0
	for k := 0; k <= 60; k++ {
		tt := temporal.Instant(float64(k) * 5)
		snap, ok := storm.AtInstant(tt)
		if !ok {
			t.Fatalf("undefined at %v", tt)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("invalid snapshot at %v: %v", tt, err)
		}
		a := snap.Area()
		if a <= 0 {
			t.Fatalf("area %v at %v", a, tt)
		}
		if got := area.AtInstant(tt).MustGet(); absDiff(got, a) > 1e-6*a {
			t.Fatalf("lifted area %v != snapshot area %v at %v", got, a, tt)
		}
		if prev > 0 && absDiff(a, prev) > 0.25*prev {
			t.Fatalf("area jump %v -> %v at %v", prev, a, tt)
		}
		prev = a
	}
}

func TestStormWithSegments(t *testing.T) {
	g := New(9)
	for _, s := range []int{4, 16, 64} {
		mr := g.StormWithSegments(temporal.Closed(0, 100), s)
		snap, ok := mr.AtInstant(50)
		if !ok || snap.NumSegments() != s {
			t.Errorf("segments = %d, want %d", snap.NumSegments(), s)
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestStormWithEye(t *testing.T) {
	g := New(19)
	storm := g.StormWithEye(0, 20, 12, 10)
	for i, u := range storm.M.Units() {
		if err := u.Validate(); err != nil {
			t.Fatalf("unit %d invalid: %v", i, err)
		}
	}
	snap, ok := storm.AtInstant(95)
	if !ok || snap.NumCycles() != 2 {
		t.Fatalf("snapshot cycles = %d", snap.NumCycles())
	}
	// The lifted area subtracts the moving eye.
	area := storm.Area()
	for k := 0; k <= 20; k++ {
		tt := temporal.Instant(float64(k)*10 + 0.25)
		s, ok := storm.AtInstant(tt)
		if !ok {
			continue
		}
		if got := area.AtInstant(tt).MustGet(); absDiff(got, s.Area()) > 1e-6*s.Area() {
			t.Fatalf("lifted area %v != snapshot %v at %v", got, s.Area(), tt)
		}
	}
	// A point resting inside the eye at t=0 should not be inside.
	eyeProbe := snap.Faces()[0].Holes[0].Vertices()[0]
	_ = eyeProbe
}

func TestObservationStream(t *testing.T) {
	a := New(77).ObservationStream("s", 5, 20, 10, 2, 6)
	b := New(77).ObservationStream("s", 5, 20, 10, 2, 6)
	if len(a) != 5*21 {
		t.Fatalf("want one observation per object per step (+initial): %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	perObject := map[string][]moving.Sample{}
	for i, o := range a {
		// Global time order, round-robin interleaved.
		if i > 0 && o.T < a[i-1].T {
			t.Fatalf("observation %d goes back in time", i)
		}
		if o.P.X < 0 || o.P.X > WorldSize || o.P.Y < 0 || o.P.Y > WorldSize {
			t.Fatalf("observation %d outside the world: %v", i, o.P)
		}
		perObject[o.ID] = append(perObject[o.ID], moving.Sample{T: o.T, P: o.P})
	}
	if len(perObject) != 5 {
		t.Fatalf("object count: %d", len(perObject))
	}
	units := 0
	for id, samples := range perObject {
		for i := 1; i < len(samples); i++ {
			if samples[i].T <= samples[i-1].T {
				t.Fatalf("%s: non-increasing per-object times", id)
			}
		}
		mp, err := moving.MPointFromSamples(samples)
		if err != nil {
			t.Fatalf("%s: stream not buildable offline: %v", id, err)
		}
		units += mp.M.Len()
	}
	// Held velocities and rests must make compaction visible: strictly
	// fewer units than legs.
	if legs := 5 * 20; units >= legs {
		t.Fatalf("no compaction opportunity in the stream: %d units for %d legs", units, legs)
	}
}
