package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
)

// snapshot is the brute-force model of one published epoch: every
// registered object's latest sample.
type snapshot struct {
	seq uint64
	at  map[string]moving.Sample
}

// modelSub is what the model remembers of one subscription: the epoch
// it seeded from and the last epoch whose publish the
// registry evaluated for it before it was unsubscribed (0 while live).
type modelSub struct {
	sub         *Subscription
	seed, until uint64
	got         []Event
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// foldEvents is the brute force the registry's dirty-set filter must
// match: the predicate evaluated on every object at every epoch after
// the seed, with no filter at all, flips emitted in ascending id order.
func foldEvents(p Predicate, epochs []snapshot, seed, until uint64) []Event {
	var out []Event
	state := map[string]bool{}
	for _, snap := range epochs {
		if snap.seq > until {
			break
		}
		ids := sortedKeys(snap.at)
		if p.idBound() {
			ids = []string{p.Object}
		}
		for _, id := range ids {
			smp, ok := snap.at[id]
			in := ok && p.holds(smp.P)
			if snap.seq > seed && in != state[id] {
				edge := "leave"
				if in {
					edge = "enter"
				}
				out = append(out, Event{Seq: uint64(len(out) + 1), Epoch: snap.seq, Edge: edge,
					Object: id, T: float64(smp.T), X: smp.P.X, Y: smp.P.Y})
			}
			state[id] = in
		}
	}
	return out
}

// TestRegistryMatchesBruteForce drives a hand-drained registry with
// random inside, within and appears subscriptions that come and go
// between publishes (publishes still queued at subscribe time included),
// over objects that register mid-run, rest, or jump across the world,
// and requires every subscription's delivered events to equal the
// brute-force fold — which makes the dirty-set filter's completeness a
// unit-level check. One phase subscribes 100 and unsubscribes 90 of
// them at once; the survivors must carry on exactly.
func TestRegistryMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := manualRegistry(Config{BufferCap: 1 << 12, QueueCap: 1 << 10})
			rg := rigOn(t, r)
			const pool = 48
			pos := map[string]geom.Point{} // registered objects' positions
			epochs := []snapshot{{seq: 1, at: map[string]moving.Sample{}}}
			var subs []*modelSub
			var drained uint64 = 1

			randRect := func() geom.Rect {
				w, h := 20+rng.Float64()*200, 20+rng.Float64()*200
				x, y := rng.Float64()*(1000-w), rng.Float64()*(1000-h)
				return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			}
			subscribe := func() *modelSub {
				obj := fmt.Sprintf("o%d", rng.Intn(pool)) // may register later
				var p Predicate
				switch rng.Intn(3) {
				case 0:
					p = Predicate{Kind: KindInside, Object: obj, Region: randRect()}
				case 1:
					p = Predicate{Kind: KindWithin, Object: obj, X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Radius: 20 + rng.Float64()*150}
				default:
					p = Predicate{Kind: KindAppears, Region: randRect()}
				}
				ep := rg.p.Epoch()
				s, err := r.Subscribe(p, ep)
				if err != nil {
					t.Fatal(err)
				}
				m := &modelSub{sub: s, seed: ep.Seq()}
				subs = append(subs, m)
				return m
			}
			unsubscribe := func(m *modelSub) {
				if !r.Unsubscribe(m.sub.ID()) {
					t.Fatalf("unsubscribe %s failed", m.sub.ID())
				}
				m.until = drained
			}
			active := func() []*modelSub {
				var out []*modelSub
				for _, m := range subs {
					if m.until == 0 {
						out = append(out, m)
					}
				}
				return out
			}
			drain := func() {
				r.drain()
				drained = epochs[len(epochs)-1].seq
				for _, m := range subs {
					evs, _ := m.sub.Take()
					m.got = append(m.got, evs...)
				}
			}

			for i := 0; i < pool/2; i++ {
				pos[fmt.Sprintf("o%d", i)] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			for step := 0; step < 60; step++ {
				for n := rng.Intn(3); n > 0; n-- {
					subscribe()
				}
				if l := active(); len(l) > 0 && rng.Intn(3) == 0 {
					unsubscribe(l[rng.Intn(len(l))])
				}
				if step == 30 {
					batch := make([]*modelSub, 100)
					for i := range batch {
						batch[i] = subscribe()
					}
					for _, i := range rng.Perm(100)[:90] {
						unsubscribe(batch[i])
					}
				}
				if len(pos) < pool && rng.Intn(4) == 0 {
					pos[fmt.Sprintf("o%d", len(pos))] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				}
				// Move: each object rests, drifts, or jumps anywhere; one in
				// ten reports twice in the publish.
				rg.tick++
				var obs []ingest.Observation
				for _, id := range sortedKeys(pos) {
					for k := 1 + rng.Intn(10)/9; k > 0; k-- {
						switch p := pos[id]; rng.Intn(4) {
						case 0: // rest
						case 1:
							pos[id] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
						default:
							pos[id] = geom.Pt(min(1000, max(0, p.X+rng.Float64()*80-40)), min(1000, max(0, p.Y+rng.Float64()*80-40)))
						}
						obs = append(obs, ingest.Observation{ObjectID: id, T: rg.tick - 0.5*float64(k-1), X: pos[id].X, Y: pos[id].Y})
					}
				}
				if _, err := rg.p.Ingest(obs); err != nil {
					t.Fatal(err)
				}
				rg.p.Flush()
				snap := snapshot{seq: rg.p.Epoch().Seq(), at: map[string]moving.Sample{}}
				for id, p := range pos {
					snap.at[id] = moving.Sample{T: temporal.Instant(rg.tick), P: p}
				}
				if snap.seq != epochs[len(epochs)-1].seq+1 {
					t.Fatalf("step %d published epoch %d after %d", step, snap.seq, epochs[len(epochs)-1].seq)
				}
				epochs = append(epochs, snap)
				if rng.Intn(3) == 0 {
					drain()
				}
			}
			drain()

			if c := r.cfg.Metrics.Snapshot().Live.Coalesced; c != 0 {
				t.Fatalf("%d publishes coalesced; the fold assumes none", c)
			}
			events := 0
			for _, m := range subs {
				until := m.until
				if until == 0 {
					until = drained
				}
				want := foldEvents(m.sub.Predicate(), epochs, m.seed, until)
				got := slices.Clone(m.got)
				for i := range got {
					got[i].PubUnixNS = 0
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s (seed %d, until %d):\n got %+v\nwant %+v", m.sub.ID(), m.sub.Predicate(), m.seed, until, got, want)
				}
				if d := m.sub.Info().Dropped; d != 0 {
					t.Fatalf("%s dropped %d events", m.sub.ID(), d)
				}
				events += len(want)
			}
			if events < 100 {
				t.Fatalf("only %d events over %d subscriptions: the run checks too little", events, len(subs))
			}
		})
	}
}
