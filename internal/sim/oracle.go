package sim

import (
	"fmt"
	"math"
	"slices"

	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
)

// oracle is the offline ground truth: it replays the exact decision
// procedure of the server — the store's monotone admission and
// published-epoch cutover, the epoch read operators, and the standing-
// query fold — over the observations the ingest API actually
// acknowledged, so every expected answer is float-for-float identical
// to what the live stack must serve. The published-prefix cutoff is
// the one idea that makes chaos windows checkable: samples are
// remembered when a batch is acknowledged (202) but only become
// queryable when an epoch publish succeeds, so a deferred publish
// (injected epoch.publish fault) or a rejected write (degraded WAL)
// leaves the expected answers pinned at the last published state,
// exactly like the server's readers.
//
// Only the sequential tick loop mutates an oracle; the per-tick query
// checkers read it concurrently after the tick's ingest settled.
type oracle struct {
	order   []string                   // registration order (slot = index)
	slots   map[string]int             // id → slot
	samples map[string][]moving.Sample // accepted observations, in order
	pubLen  map[string]int             // published prefix length
	pending map[string]geom.Rect       // movement rects since last publish
	trajs   map[string]traj            // trajectory cache over the published prefix

	subs []*oracleSub

	// Health state machine mirror (ingest/health.go with the simulator's
	// DegradedThreshold of 2 and an always-expired probe timer).
	consecFails int
	degraded    bool
}

// traj caches one object's published trajectory.
type traj struct {
	n  int // pubLen the cache was built at
	mp moving.MPoint
}

// oracleSub mirrors one subscription's edge-trigger state and the full
// expected event sequence (Seq assigned exactly as the registry does).
type oracleSub struct {
	id       string
	pred     live.Predicate
	state    bool                // id-bound forms: last evaluated truth
	members  map[string]struct{} // appears: objects currently inside
	seq      uint64
	expected []live.Event
}

func newOracle() *oracle {
	return &oracle{
		slots:   map[string]int{},
		samples: map[string][]moving.Sample{},
		pubLen:  map[string]int{},
		pending: map[string]geom.Rect{},
		trajs:   map[string]traj{},
	}
}

// addSub registers a subscription mirror. The simulator subscribes
// before the first observation, so the seed state is always empty.
func (o *oracle) addSub(id string, pred live.Predicate) {
	o.subs = append(o.subs, &oracleSub{id: id, pred: pred, members: map[string]struct{}{}})
}

// accept folds one acknowledged (202) batch: samples append under the
// store's monotone admission rule and the pending movement rectangles
// extend exactly as Store.markDirtyLocked does.
func (o *oracle) accept(batch []ingest.Observation) {
	for _, ob := range batch {
		slot, ok := o.slots[ob.ObjectID]
		if !ok {
			slot = len(o.order)
			o.slots[ob.ObjectID] = slot
			o.order = append(o.order, ob.ObjectID)
		}
		smp := moving.Sample{T: temporal.Instant(ob.T), P: geom.Pt(ob.X, ob.Y)}
		prev := o.samples[ob.ObjectID]
		if n := len(prev); n > 0 && smp.T <= prev[n-1].T {
			continue // dropped by the store's monotone admission
		}
		from := smp.P
		if n := len(prev); n > 0 {
			from = prev[n-1].P
		}
		r, ok := o.pending[ob.ObjectID]
		if !ok {
			r = geom.EmptyRect()
		}
		o.pending[ob.ObjectID] = r.ExtendPoint(from).ExtendPoint(smp.P)
		o.samples[ob.ObjectID] = append(prev, smp)
	}
}

// rejected folds one 503-rejected batch into the health mirror.
func (o *oracle) rejected() {
	o.consecFails++
	if o.consecFails >= 2 {
		o.degraded = true
	}
}

// publish advances the published prefix to everything accepted so far
// and evaluates the standing-query fold over the dirty set (sorted by
// id, as Store.publish emits it). epoch is the sequence number of
// the epoch this publish produced.
func (o *oracle) publish(epoch uint64) {
	dirty := make([]string, 0, len(o.pending))
	for id := range o.pending {
		dirty = append(dirty, id)
	}
	slices.Sort(dirty)
	for _, s := range o.subs {
		o.evaluate(s, epoch, dirty)
	}
	for _, id := range dirty {
		o.pubLen[id] = len(o.samples[id])
	}
	clear(o.pending)
}

// accepted clears the health mirror: an acknowledged write means the
// WAL append succeeded, whether or not the epoch publish was deferred.
func (o *oracle) accepted() { o.consecFails, o.degraded = 0, false }

// holds mirrors Predicate.holds (which is unexported): the formulas
// must stay identical for the fold to be float-exact.
func holds(p live.Predicate, pt geom.Point) bool {
	if p.Kind == live.KindWithin {
		return math.Hypot(pt.X-p.X, pt.Y-p.Y) <= p.Radius
	}
	return p.Region.ContainsPoint(pt)
}

// evaluate folds one publish into a subscription mirror, replicating
// Subscription.evaluate: the dirty-set filter (bound ∩ movement
// rectangle) gates evaluation, edges are state
// flips against the new epoch's current samples, and events carry the
// publishing epoch and the object's latest sample. Event positions use
// the post-publish prefix, so current() is computed against the sample
// arrays directly (pubLen advances after the fold, but the notice's
// epoch is the one just published — its Current is the full accepted
// prefix of every dirty object).
func (o *oracle) evaluate(s *oracleSub, epoch uint64, dirty []string) {
	bound := s.pred.Bound()
	emit := func(edge, obj string, smp moving.Sample) {
		s.seq++
		s.expected = append(s.expected, live.Event{
			Seq:    s.seq,
			Epoch:  epoch,
			Edge:   edge,
			Object: obj,
			T:      float64(smp.T),
			X:      smp.P.X,
			Y:      smp.P.Y,
		})
	}
	newCurrent := func(id string) (moving.Sample, bool) {
		ss := o.samples[id]
		if len(ss) == 0 {
			return moving.Sample{}, false
		}
		return ss[len(ss)-1], true
	}
	if s.pred.Kind != live.KindAppears {
		idx := slices.Index(dirty, s.pred.Object)
		if idx < 0 || !bound.Intersects(o.pending[s.pred.Object]) {
			return
		}
		smp, ok := newCurrent(s.pred.Object)
		in := ok && holds(s.pred, smp.P)
		if in != s.state {
			s.state = in
			if in {
				emit("enter", s.pred.Object, smp)
			} else {
				emit("leave", s.pred.Object, smp)
			}
		}
		return
	}
	for _, id := range dirty {
		if !bound.Intersects(o.pending[id]) {
			continue
		}
		smp, ok := newCurrent(id)
		in := ok && holds(s.pred, smp.P)
		_, was := s.members[id]
		switch {
		case in && !was:
			s.members[id] = struct{}{}
			emit("enter", id, smp)
		case !in && was:
			delete(s.members, id)
			emit("leave", id, smp)
		}
	}
}

// trajectory returns the object's published trajectory (at least two
// published samples), rebuilding the cache when the prefix advanced.
// The offline builder and the store's online appender produce the
// identical unit sequence (same chaining, same merge rule), so unit
// evaluation — and therefore every float in an expected answer — is
// bit-equal to the server's.
func (o *oracle) trajectory(id string) (moving.MPoint, bool) {
	n := o.pubLen[id]
	if n < 2 {
		return moving.MPoint{}, false
	}
	if c, ok := o.trajs[id]; ok && c.n == n {
		return c.mp, true
	}
	mp, err := moving.MPointFromSamples(o.samples[id][:n])
	if err != nil {
		panic(fmt.Sprintf("sim: oracle trajectory %s: %v", id, err))
	}
	o.trajs[id] = traj{n: n, mp: mp}
	return mp, true
}

// atInstant mirrors Epoch.AtInstant over the published prefixes:
// position of every object defined at t, in registration order.
func (o *oracle) atInstant(t float64) []ingest.Position {
	out := []ingest.Position{}
	for _, id := range o.order {
		mp, ok := o.trajectory(id)
		if !ok {
			continue
		}
		u, ok := mp.M.UnitAt(temporal.Instant(t))
		if !ok {
			continue
		}
		p := u.Eval(temporal.Instant(t))
		out = append(out, ingest.Position{ID: id, X: p.X, Y: p.Y})
	}
	return out
}

// window mirrors Epoch.Window: ids of objects inside rect at some
// instant of [t1, t2], ascending registration order. Index filtering
// plus exact refinement equals plain exact membership over the
// published units, so the oracle skips the index and refines directly.
func (o *oracle) window(rect geom.Rect, t1, t2 float64) []string {
	iv := temporal.Closed(temporal.Instant(t1), temporal.Instant(t2))
	out := []string{}
	for _, id := range o.order {
		mp, ok := o.trajectory(id)
		if !ok {
			continue
		}
		for _, u := range mp.M.Units() {
			if index.UPointInWindow(u, rect, iv) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// nearest mirrors Epoch.Nearest: objects defined at t ordered by
// (distance, registration slot), radius-inclusive, cut at k when k > 0.
func (o *oracle) nearest(x, y, t float64, k int, radius float64) []ingest.NearbyResult {
	type hit struct {
		slot int
		res  ingest.NearbyResult
	}
	hits := []hit{}
	for slot, id := range o.order {
		mp, ok := o.trajectory(id)
		if !ok {
			continue
		}
		u, ok := mp.M.UnitAt(temporal.Instant(t))
		if !ok {
			continue
		}
		p := u.Eval(temporal.Instant(t))
		d := math.Hypot(p.X-x, p.Y-y)
		if radius >= 0 && d > radius {
			continue
		}
		hits = append(hits, hit{slot: slot, res: ingest.NearbyResult{ID: id, X: p.X, Y: p.Y, Dist: d}})
	}
	slices.SortFunc(hits, func(a, b hit) int {
		switch {
		case a.res.Dist < b.res.Dist:
			return -1
		case a.res.Dist > b.res.Dist:
			return 1
		}
		return a.slot - b.slot
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	out := []ingest.NearbyResult{}
	for _, h := range hits {
		out = append(out, h.res)
	}
	return out
}
