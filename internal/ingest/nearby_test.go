package ingest

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// TestEpochNearestOracle is the acceptance property test: over 1000
// live objects, best-first k-NN through the epoch's index snapshot must
// match the brute-force oracle (bruteNearest) exactly — ids, order,
// positions and distances — for random query points at random instants,
// with and without a radius bound.
func TestEpochNearestOracle(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g := workload.New(1234)
	stream := g.ObservationStream("n", 1000, 4, 0, 10, 3)
	batch := make([]Observation, len(stream))
	for i, w := range stream {
		batch[i] = Observation{ObjectID: w.ID, T: float64(w.T), X: w.P.X, Y: w.P.Y}
	}
	for lo := 0; lo < len(batch); lo += 512 {
		if _, err := p.Ingest(batch[lo:min(lo+512, len(batch))]); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	e := p.Epoch()
	if e.Objects() != 1000 {
		t.Fatalf("objects: %d", e.Objects())
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		ti := temporal.Instant(rng.Float64() * 40)
		k := 10
		radius := -1.0
		switch trial % 4 {
		case 1:
			k = 1 + rng.Intn(50)
		case 2:
			radius = 30 + rng.Float64()*150
		case 3:
			k = 0
			radius = 30 + rng.Float64()*150
		}
		if got, want := e.Nearest(x, y, ti, k, radius), bruteNearest(e, x, y, ti, k, radius); !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d r=%.1f t=%v): got %+v, want %+v", trial, k, radius, ti, got, want)
		}
	}
}

// TestEpochNearestInstantOutsideDefinition: an instant before any
// observation yields no neighbors (every candidate refines to
// undefined), not a panic or stale positions.
func TestEpochNearestInstantOutsideDefinition(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Ingest([]Observation{{ObjectID: "a", T: 10, X: 1, Y: 1}, {ObjectID: "a", T: 20, X: 2, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if got := p.Epoch().Nearest(0, 0, 5, 3, -1); len(got) != 0 {
		t.Fatalf("expected no neighbors before definition time, got %+v", got)
	}
	if got := p.Epoch().Nearest(0, 0, 15, 3, -1); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("expected a at t=15, got %+v", got)
	}
}

// TestEpochCurrentAndCurrentInside covers the registry-facing
// accessors: Current returns the latest accepted sample, CurrentInside
// the sorted ids whose latest position lies in the rectangle.
func TestEpochCurrentAndCurrentInside(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Ingest([]Observation{
		{ObjectID: "b", T: 0, X: 50, Y: 50},
		{ObjectID: "a", T: 0, X: 10, Y: 10},
		{ObjectID: "a", T: 5, X: 12, Y: 10},
		{ObjectID: "c", T: 0, X: 900, Y: 900},
	}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	e := p.Epoch()
	smp, ok := e.Current("a")
	if !ok || smp.P.X != 12 || smp.P.Y != 10 || float64(smp.T) != 5 {
		t.Fatalf("Current(a): %+v %v", smp, ok)
	}
	if _, ok := e.Current("zzz"); ok {
		t.Fatal("Current of unknown id reported ok")
	}
	in := e.CurrentInside(geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	if !slices.Equal(in, []string{"a", "b"}) {
		t.Fatalf("CurrentInside: %v", in)
	}
}

// TestPublishDirtySets exercises the OnPublish hook contract: called
// once per epoch advance with the id-sorted dirty set, where each
// rectangle spans the object's movement since the previous publish; a
// flush that changes nothing publishes (and notifies) nothing.
func TestPublishDirtySets(t *testing.T) {
	type call struct {
		seq   uint64
		dirty []DirtyObject
	}
	var calls []call
	p, err := Open(Config{
		FlushSize: 1 << 20, MaxAge: time.Hour,
		OnPublish: func(ep *Epoch, dirty []DirtyObject) {
			calls = append(calls, call{ep.Seq(), dirty})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Ingest([]Observation{
		{ObjectID: "car2", T: 0, X: 200, Y: 200},
		{ObjectID: "car1", T: 0, X: 10, Y: 20},
	}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if len(calls) != 1 {
		t.Fatalf("publish calls: %d", len(calls))
	}
	d := calls[0].dirty
	if len(d) != 2 || d[0].ID != "car1" || d[1].ID != "car2" {
		t.Fatalf("dirty set not id-sorted: %+v", d)
	}
	if d[0].Rect.MinX != 10 || d[0].Rect.MaxX != 10 || d[0].Rect.MinY != 20 {
		t.Fatalf("car1 rect: %+v", d[0].Rect)
	}

	// Movement: the rect must span the old position through the new one.
	if _, err := p.Ingest([]Observation{{ObjectID: "car1", T: 10, X: 100, Y: 5}}); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if len(calls) != 2 {
		t.Fatalf("publish calls after move: %d", len(calls))
	}
	d = calls[1].dirty
	if len(d) != 1 || d[0].ID != "car1" {
		t.Fatalf("second dirty set: %+v", d)
	}
	want := geom.Rect{MinX: 10, MinY: 5, MaxX: 100, MaxY: 20}
	if d[0].Rect != want {
		t.Fatalf("movement rect: got %+v, want %+v", d[0].Rect, want)
	}

	// A flush with nothing new must not advance the epoch or notify.
	p.Flush()
	if len(calls) != 2 {
		t.Fatalf("no-op flush published: %d calls", len(calls))
	}
}
