package live

import (
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/ingest"
)

// rig wires a real ingest pipeline into a registry the way moserver
// does: every epoch publish notifies the registry on the flush path.
type rig struct {
	t    *testing.T
	p    *ingest.Pipeline
	r    *Registry
	tick float64
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return rigOn(t, NewRegistry(cfg))
}

// manualRegistry builds a registry without its notifier goroutine, as
// BenchmarkRegistryNotify does: publishes stay queued until the caller
// runs drain, so what was queued when is exact.
func manualRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:  cfg.withDefaults(),
		subs: make(map[string]*Subscription),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// rigOn wires a pipeline into the given registry.
func rigOn(t *testing.T, r *Registry) *rig {
	t.Helper()
	p, err := ingest.Open(ingest.Config{
		FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 1 << 30,
		OnPublish: r.Notify,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(); p.Close() })
	return &rig{t: t, p: p, r: r}
}

// move places objects and flushes one epoch; the time axis advances one
// step per call.
func (rg *rig) move(pos map[string][2]float64) {
	rg.t.Helper()
	rg.tick++
	batch := make([]ingest.Observation, 0, len(pos))
	for id, xy := range pos {
		batch = append(batch, ingest.Observation{ObjectID: id, T: rg.tick, X: xy[0], Y: xy[1]})
	}
	if _, err := rg.p.Ingest(batch); err != nil {
		rg.t.Fatal(err)
	}
	rg.p.Flush()
}

// collect waits until the subscription has delivered n events (the
// notifier runs asynchronously) and returns them in order.
func collect(t *testing.T, s *Subscription, n int) []Event {
	t.Helper()
	var out []Event
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		evs, _ := s.Take()
		out = append(out, evs...)
		if len(out) >= n {
			break
		}
		select {
		case <-s.Wait():
		case <-s.Done():
			t.Fatalf("subscription ended with %d/%d events: %+v", len(out), n, out)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events: %+v", len(out), n, out)
		}
	}
	return out
}

// settle waits for the notifier to have drained every publish issued so
// far, by polling until no event arrives for a few quiet intervals.
func settle() { time.Sleep(50 * time.Millisecond) }

var box = geom.Rect{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}

func TestInsideEnterLeave(t *testing.T) {
	rg := newRig(t, Config{})
	rg.move(map[string][2]float64{"bus": {0, 0}})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindInside, Object: "bus", Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	rg.move(map[string][2]float64{"bus": {150, 150}}) // enter
	rg.move(map[string][2]float64{"bus": {160, 150}}) // still inside: no event
	rg.move(map[string][2]float64{"bus": {500, 500}}) // leave
	evs := collect(t, sub, 2)
	if len(evs) != 2 || evs[0].Edge != "enter" || evs[1].Edge != "leave" {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Object != "bus" || evs[0].X != 150 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("event detail: %+v", evs)
	}
	if evs[1].Epoch <= evs[0].Epoch {
		t.Fatalf("epoch order: %+v", evs)
	}
	settle()
	if evs, _ := sub.Take(); len(evs) != 0 {
		t.Fatalf("unexpected extra events: %+v", evs)
	}
}

func TestWithinEnterLeave(t *testing.T) {
	rg := newRig(t, Config{})
	rg.move(map[string][2]float64{"cab": {0, 0}})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindWithin, Object: "cab", X: 300, Y: 300, Radius: 50}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// The bounding square's corner is outside the disk: no event.
	rg.move(map[string][2]float64{"cab": {345, 345}})
	rg.move(map[string][2]float64{"cab": {320, 320}}) // inside the disk: enter
	rg.move(map[string][2]float64{"cab": {0, 0}})     // leave
	evs := collect(t, sub, 2)
	if evs[0].Edge != "enter" || evs[0].X != 320 || evs[1].Edge != "leave" {
		t.Fatalf("events: %+v", evs)
	}
}

func TestSeedSuppressesExistingTruth(t *testing.T) {
	rg := newRig(t, Config{})
	rg.move(map[string][2]float64{"bus": {150, 150}}) // inside before subscribing
	sub, err := rg.r.Subscribe(Predicate{Kind: KindInside, Object: "bus", Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	rg.move(map[string][2]float64{"bus": {160, 160}}) // still inside: no enter
	rg.move(map[string][2]float64{"bus": {600, 600}}) // leave fires first
	evs := collect(t, sub, 1)
	if len(evs) != 1 || evs[0].Edge != "leave" {
		t.Fatalf("expected a single leave, got %+v", evs)
	}
}

// TestNoEventsBeforeSeedEpoch: publishes still queued when a client
// subscribes are history its seed already holds. bus enters box at
// epoch 2 and leaves at epoch 3; both notices wait in the queue while
// the subscription seeds from epoch 3, so draining them must emit
// nothing — and a later move still fires its edge.
func TestNoEventsBeforeSeedEpoch(t *testing.T) {
	rg := rigOn(t, manualRegistry(Config{}))
	rg.move(map[string][2]float64{"bus": {150, 150}}) // epoch 2: inside
	rg.move(map[string][2]float64{"bus": {500, 500}}) // epoch 3: outside
	ep := rg.p.Epoch()
	if ep.Seq() != 3 {
		t.Fatalf("seed epoch %d, want 3", ep.Seq())
	}
	sub, err := rg.r.Subscribe(Predicate{Kind: KindInside, Object: "bus", Region: box}, ep)
	if err != nil {
		t.Fatal(err)
	}
	rg.r.drain()
	if evs, _ := sub.Take(); len(evs) != 0 {
		t.Fatalf("events for publishes before the subscription: %+v", evs)
	}
	rg.move(map[string][2]float64{"bus": {160, 160}}) // epoch 4: enter
	rg.r.drain()
	evs, _ := sub.Take()
	if len(evs) != 1 || evs[0].Edge != "enter" || evs[0].Epoch != 4 || evs[0].Seq != 1 || evs[0].X != 160 {
		t.Fatalf("events after the seed: %+v", evs)
	}
}

func TestAppearsDiff(t *testing.T) {
	rg := newRig(t, Config{})
	rg.move(map[string][2]float64{"a": {150, 150}, "b": {0, 0}})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindAppears, Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// a was already inside (seeded); b enters; c is first observed
	// directly inside the region.
	rg.move(map[string][2]float64{"b": {120, 120}, "c": {199, 199}})
	evs := collect(t, sub, 2)
	if evs[0].Edge != "enter" || evs[0].Object != "b" || evs[1].Edge != "enter" || evs[1].Object != "c" {
		t.Fatalf("events: %+v", evs)
	}
	rg.move(map[string][2]float64{"a": {900, 900}}) // seeded member leaves
	evs = collect(t, sub, 1)
	if evs[0].Edge != "leave" || evs[0].Object != "a" {
		t.Fatalf("leave event: %+v", evs)
	}
}

func TestNilEpochSeedFiresOnFirstTruth(t *testing.T) {
	rg := newRig(t, Config{})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindAppears, Region: box}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg.move(map[string][2]float64{"x": {150, 150}})
	evs := collect(t, sub, 1)
	if evs[0].Edge != "enter" || evs[0].Object != "x" {
		t.Fatalf("events: %+v", evs)
	}
}

func TestDropOldestMarksLagged(t *testing.T) {
	rg := newRig(t, Config{BufferCap: 4})
	rg.move(map[string][2]float64{"bus": {0, 0}})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindInside, Object: "bus", Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// Six flips while nobody reads: the four-slot ring keeps the newest
	// four, drops the oldest two, and marks the stream lagged.
	for i := 0; i < 3; i++ {
		rg.move(map[string][2]float64{"bus": {150, 150}})
		rg.move(map[string][2]float64{"bus": {900, 900}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for sub.Info().Dropped < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("drops never happened: %+v", sub.Info())
		}
		time.Sleep(time.Millisecond)
	}
	evs, lagged := sub.Take()
	if !lagged {
		t.Fatal("Take did not report lagged")
	}
	if len(evs) != 4 || evs[0].Seq != 3 || evs[3].Seq != 6 {
		t.Fatalf("ring contents: %+v", evs)
	}
	if _, lagged := sub.Take(); lagged {
		t.Fatal("lagged flag not cleared by Take")
	}
	if got := sub.Info().Dropped; got != 2 {
		t.Fatalf("dropped count: %d", got)
	}
}

func TestUnsubscribeEndsStream(t *testing.T) {
	rg := newRig(t, Config{})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindAppears, Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if !rg.r.Unsubscribe(sub.ID()) {
		t.Fatal("unsubscribe failed")
	}
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after unsubscribe")
	}
	if rg.r.Unsubscribe(sub.ID()) {
		t.Fatal("double unsubscribe succeeded")
	}
	if _, ok := rg.r.Get(sub.ID()); ok {
		t.Fatal("unsubscribed id still resolvable")
	}
	if sub.Info().Active {
		t.Fatal("closed subscription reports active")
	}
	// Publishes after unsubscribe are evaluated without the dead sub.
	rg.move(map[string][2]float64{"q": {150, 150}})
	settle()
	if evs, _ := sub.Take(); len(evs) != 0 {
		t.Fatalf("events after unsubscribe: %+v", evs)
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	rg := newRig(t, Config{})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindAppears, Region: box}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg.r.Close()
	rg.r.Close()
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed by registry Close")
	}
	if _, err := rg.r.Subscribe(Predicate{Kind: KindAppears, Region: box}, nil); err == nil {
		t.Fatal("Subscribe after Close succeeded")
	}
	// Notify after Close must be a harmless no-op (the ingest pipeline
	// may still flush while the server drains).
	rg.move(map[string][2]float64{"z": {150, 150}})
}

// TestNotifyDuringClose publishes while the registry closes, 50 times:
// Notify must read closed under r.mu, which -race checks.
func TestNotifyDuringClose(t *testing.T) {
	for range 50 {
		r := NewRegistry(Config{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Notify(nil, nil)
		}()
		r.Close()
		<-done
	}
}

func TestMergeDirty(t *testing.T) {
	a := []ingest.DirtyObject{
		{ID: "a", Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		{ID: "c", Rect: geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}},
	}
	b := []ingest.DirtyObject{
		{ID: "a", Rect: geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}},
		{ID: "b", Rect: geom.Rect{MinX: 9, MinY: 9, MaxX: 9, MaxY: 9}},
	}
	m := mergeDirty(a, b)
	if len(m) != 3 || m[0].ID != "a" || m[1].ID != "b" || m[2].ID != "c" {
		t.Fatalf("merge: %+v", m)
	}
	if m[0].Rect.MaxX != 3 || m[0].Rect.MinX != 0 {
		t.Fatalf("union of a: %+v", m[0])
	}
}

func TestCoalescePreservesEdges(t *testing.T) {
	// A registry with a tiny queue; Notify calls race ahead of the
	// drain, forcing coalescing, yet every edge must still arrive
	// because edges are flips against the subscription's own state.
	rg := newRig(t, Config{QueueCap: 1})
	rg.move(map[string][2]float64{"bus": {0, 0}})
	sub, err := rg.r.Subscribe(Predicate{Kind: KindInside, Object: "bus", Region: box}, rg.p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rg.move(map[string][2]float64{"bus": {150, 150}})
		rg.move(map[string][2]float64{"bus": {900, 900}})
	}
	settle()
	evs, _ := sub.Take()
	if len(evs) == 0 {
		t.Fatal("no events delivered under coalescing")
	}
	// Edges must alternate starting with enter, whatever was coalesced.
	for i, e := range evs {
		want := "enter"
		if i%2 == 1 {
			want = "leave"
		}
		if e.Edge != want {
			t.Fatalf("event %d: got %s, want %s (%+v)", i, e.Edge, want, evs)
		}
	}
}

func TestPredicateValidateAndString(t *testing.T) {
	cases := []struct {
		p  Predicate
		ok bool
	}{
		{Predicate{Kind: KindInside, Object: "a", Region: box}, true},
		{Predicate{Kind: KindInside, Region: box}, false},                           // no object
		{Predicate{Kind: KindInside, Object: "a", Region: geom.EmptyRect()}, false}, // empty region
		{Predicate{Kind: KindWithin, Object: "a", X: 1, Y: 1, Radius: 5}, true},     //
		{Predicate{Kind: KindWithin, Object: "a", X: 1, Y: 1, Radius: 0}, false},    // no radius
		{Predicate{Kind: KindAppears, Region: box}, true},
		{Predicate{Kind: KindAppears, Object: "a", Region: box}, false}, // object is meaningless
		{Predicate{Kind: "near", Object: "a"}, false},                   // unknown kind
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err=%v, want ok=%v", i, c.p, err, c.ok)
		}
	}
	p := Predicate{Kind: KindWithin, Object: "bus-7", X: 10, Y: 20, Radius: 5}
	if got := p.String(); got != "within(bus-7, 10, 20, 5)" {
		t.Errorf("String: %q", got)
	}
	b := p.Bound()
	if b.MinX != 5 || b.MaxX != 15 || b.MinY != 15 || b.MaxY != 25 {
		t.Errorf("Bound: %+v", b)
	}
}
