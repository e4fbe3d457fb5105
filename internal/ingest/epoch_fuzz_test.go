package ingest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/baseline"
	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// FuzzEpochAtInstant holds Epoch.AtInstant — the starts-column search of
// objView.unitAt — to baseline's linear scan over each object's
// snapshot, an oracle that shares no search code with it.
//
// The bytes build a history in two parts. Seeds: byte 0 picks 1 to 4
// seeded objects; each has a count byte (bits 0–2: 0 to 7 units, bits
// 4–7: the first start, −4 to 11) and one byte per unit: bits 0–1 the
// gap after the previous unit (0, 0, 1 or 2), bits 2–3 the duration (0
// is a degenerate [t, t]), bits 4–5 the closure flags, bits 6–7 the
// velocity. A unit that would share its start with a predecessor closed
// there is made left-open, so seeds carry the shapes only seeds can: a
// left-open unit after a degenerate one or after a right-closed one.
// Live appends: each remaining byte (up to 64) is one observation of
// object o(bits 0–1) — objects the seeds do not cover register on their
// first — at −1, 0, +1 or +2 (bits 2–3) from that object's latest time,
// so some are dropped, and at x = bits 4–7, so held positions and held
// velocities compact. After every fourth observation, and at the start
// and the end, the store publishes; each epoch is checked at once and
// again at the end, after every later append.
func FuzzEpochAtInstant(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzEpochs(t, data, func(ep *Epoch) func() {
			probes := atInstantProbes(ep)
			want := make([][]Position, len(probes))
			for j, at := range probes {
				want[j] = scanAtInstant(ep, at)
				requireSamePositions(t, at, ep.AtInstant(at), want[j])
			}
			return func() {
				for j, at := range probes {
					requireSamePositions(t, at, ep.AtInstant(at), want[j])
				}
			}
		})
	})
}

// FuzzEpochWindow holds the two index-driven reads to oracles that never
// touch the index: Epoch.Window — sealed chunks from the ladder, open
// chunks from the epoch's extra rung, a walk over each candidate chunk's
// units — to index.ScanWindow over every unit of the epoch's snapshots,
// and Epoch.Nearest to brute force over baseline's linear AtInstant,
// sorted by (distance, slot). The bytes spell the same history as
// FuzzEpochAtInstant's; the checked-in corpus grows objects, seeded and
// live, to 7, 8, 9 and 17 units, either side of a chunk boundary.
func FuzzEpochWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzEpochs(t, data, func(ep *Epoch) func() {
			ts, xs := atInstantProbes(ep), positionProbes(ep)
			rng := rand.New(rand.NewSource(int64(ep.Seq())))
			pickT := func() temporal.Instant { return ts[rng.Intn(len(ts))] }
			pickX := func() float64 { return xs[rng.Intn(len(xs))] }
			type windowQ struct {
				rect geom.Rect
				iv   temporal.Interval
				want []string
			}
			type nearestQ struct {
				x, y, radius float64
				at           temporal.Instant
				k            int
				want         []NearbyResult
			}
			var ws []windowQ
			var ns []nearestQ
			for range 24 {
				t1, t2 := pickT(), pickT()
				t1, t2 = min(t1, t2), max(t1, t2)
				iv := temporal.Closed(t1, t2)
				if t1 < t2 {
					iv = temporal.MustInterval(t1, t2, rng.Intn(2) == 0, rng.Intn(2) == 0)
				}
				// Every y is 0: the three bands hit it exactly, around it
				// and never.
				x1, x2 := pickX(), pickX()
				y := []geom.Rect{{MinY: 0, MaxY: 0}, {MinY: -1, MaxY: 1}, {MinY: 0.5, MaxY: 2}}[rng.Intn(3)]
				rect := geom.Rect{MinX: min(x1, x2), MinY: y.MinY, MaxX: max(x1, x2), MaxY: y.MaxY}
				ws = append(ws, windowQ{rect: rect, iv: iv, want: scanWindow(ep, rect, iv)})

				q := nearestQ{x: pickX(), y: float64(rng.Intn(2)), at: pickT(), k: rng.Intn(4), radius: []float64{-1, 0, 0.5, 3, 20}[rng.Intn(5)]}
				q.want = bruteNearest(ep, q.x, q.y, q.at, q.k, q.radius)
				ns = append(ns, q)
			}
			check := func() {
				for _, q := range ws {
					if got := ep.Window(q.rect, q.iv); !slices.Equal(got, q.want) {
						t.Fatalf("epoch %d: Window(%v, %v) = %v, scan %v", ep.Seq(), q.rect, q.iv, got, q.want)
					}
				}
				for _, q := range ns {
					if got := ep.Nearest(q.x, q.y, q.at, q.k, q.radius); !slices.Equal(got, q.want) {
						t.Fatalf("epoch %d: Nearest(%v, %v, t=%v, k=%d, r=%v) = %v, brute force %v", ep.Seq(), q.x, q.y, q.at, q.k, q.radius, got, q.want)
					}
				}
			}
			check()
			return check
		})
	})
}

// fuzzEpochs builds the history data spells (see FuzzEpochAtInstant) and
// hands check every epoch the store publishes on the way, at once: at
// the start, after every fourth live observation and at the end. The
// function check returns runs again at the end, after every later
// append.
func fuzzEpochs(t *testing.T, data []byte, check func(ep *Epoch) func()) {
	ids, seeds, live := fuzzSeeds(t, data)
	s, err := newStore(seedHistory(ids, seeds), obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	var last [4]temporal.Instant
	var seen [4]bool
	for k, m := range seeds {
		if n := m.M.Len(); n > 0 {
			last[k], seen[k] = m.M.Units()[n-1].Iv.End, true
		}
	}
	var rechecks []func()
	var ep *Epoch
	pin := func() {
		ep, _ = s.publish(ep)
		requireStartsColumns(t, s)
		rechecks = append(rechecks, check(ep))
	}
	pin()
	for i, c := range live[:min(len(live), 64)] {
		k := c & 3
		at := last[k] + temporal.Instant(int(c>>2&3)-1)
		if !seen[k] || at > last[k] {
			last[k], seen[k] = at, true
		}
		s.Apply([]Observation{{ObjectID: fmt.Sprintf("o%d", k), T: float64(at), X: float64(c >> 4)}})
		if i%4 == 3 {
			pin()
		}
	}
	pin()
	for _, recheck := range rechecks {
		recheck()
	}
}

// fuzzSeeds decodes FuzzEpochAtInstant's seed objects, o0 to o3, and
// returns the bytes left for live appends.
func fuzzSeeds(t *testing.T, data []byte) (ids []string, seeds []moving.MPoint, rest []byte) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for k, n := 0, 1+int(next()&3); k < n; k++ {
		c := next()
		var us []units.UPoint
		start := temporal.Instant(c>>4) - 4
		for j := 0; j < int(c&7); j++ {
			b := next()
			if j > 0 {
				start = us[j-1].Iv.End + temporal.Instant([]int{0, 0, 1, 2}[b&3])
			}
			d := temporal.Instant(b >> 2 & 3)
			lc, rc := b&16 != 0 || d == 0, b&32 != 0 || d == 0
			if j > 0 && start == us[j-1].Iv.End && us[j-1].Iv.RC && lc {
				if d == 0 {
					start++ // a degenerate unit cannot open; leave a gap
				} else {
					lc = false
				}
			}
			// X0 differs between neighbours, so no two adjacent units are
			// equal and the mapping stays minimal.
			us = append(us, units.NewUPoint(temporal.MustInterval(start, start+d, lc, rc), units.MPoint{X0: float64(j), X1: float64(b >> 6)}))
		}
		m, err := mapping.NewOrdered(us)
		if err != nil {
			t.Fatalf("seed o%d: the generator built an invalid mapping: %v", k, err)
		}
		ids, seeds = append(ids, fmt.Sprintf("o%d", k)), append(seeds, moving.MPoint{M: m})
	}
	return ids, seeds, data
}

// atInstantProbes lists every unit start and end of the epoch, every
// unit-less object's observation time, each with its two float
// neighbours, and one instant before and one after all of them.
func atInstantProbes(ep *Epoch) []temporal.Instant {
	ts := []temporal.Instant{0}
	add := func(at temporal.Instant) {
		ts = append(ts, at, temporal.Instant(math.Nextafter(float64(at), math.Inf(-1))), temporal.Instant(math.Nextafter(float64(at), math.Inf(1))))
	}
	for _, sum := range ep.Summaries() {
		m, _ := ep.Snapshot(sum.ID)
		for _, u := range m.M.Units() {
			add(u.Iv.Start)
			add(u.Iv.End)
		}
		if cur, ok := ep.Current(sum.ID); ok {
			add(cur.T)
		}
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)
	return append(ts, ts[0]-1, ts[len(ts)-1]+1)
}

// positionProbes lists the x of every unit's start and end point and of
// every object's latest observation, each also a quarter to either side,
// plus 0: the edges a window or a k-NN query point can sit on.
func positionProbes(ep *Epoch) []float64 {
	xs := []float64{0}
	add := func(x float64) { xs = append(xs, x, x-0.25, x+0.25) }
	for _, sum := range ep.Summaries() {
		m, _ := ep.Snapshot(sum.ID)
		for _, u := range m.M.Units() {
			add(u.StartPoint().X)
			add(u.EndPoint().X)
		}
		if cur, ok := ep.Current(sum.ID); ok {
			add(cur.P.X)
		}
	}
	return xs
}

// scanAtInstant is the oracle: every object of ep in registration
// order, its snapshot flattened into baseline's unordered fragments and
// scanned.
func scanAtInstant(ep *Epoch, at temporal.Instant) []Position {
	var out []Position
	for _, sum := range ep.Summaries() {
		m, _ := ep.Snapshot(sum.ID)
		if p, ok := baseline.FromMPoint(m).AtInstant(at); ok {
			out = append(out, Position{ID: sum.ID, X: p.X, Y: p.Y})
		}
	}
	return out
}

// scanWindow is Window's oracle: index.ScanWindow over every unit of
// every snapshot, in registration order.
func scanWindow(ep *Epoch, rect geom.Rect, iv temporal.Interval) []string {
	sums := ep.Summaries()
	objs := make([]moving.MPoint, len(sums))
	for i, sum := range sums {
		objs[i], _ = ep.Snapshot(sum.ID)
	}
	var out []string
	for _, oi := range index.ScanWindow(objs, rect, iv) {
		out = append(out, sums[oi].ID)
	}
	return out
}

// bruteNearest is Nearest's oracle: every object defined at `at` by
// baseline's linear scan, within radius (radius < 0: any), ordered by
// (distance, slot), the first k (k <= 0: all).
func bruteNearest(ep *Epoch, x, y float64, at temporal.Instant, k int, radius float64) []NearbyResult {
	type hit struct {
		r    NearbyResult
		slot int
	}
	var hits []hit
	for slot, sum := range ep.Summaries() {
		m, _ := ep.Snapshot(sum.ID)
		p, ok := baseline.FromMPoint(m).AtInstant(at)
		if !ok {
			continue
		}
		if d := math.Hypot(p.X-x, p.Y-y); radius < 0 || d <= radius {
			hits = append(hits, hit{NearbyResult{ID: sum.ID, X: p.X, Y: p.Y, Dist: d}, slot})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.r.Dist, b.r.Dist), cmp.Compare(a.slot, b.slot))
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	out := make([]NearbyResult, len(hits))
	for i, h := range hits {
		out[i] = h.r
	}
	return out
}

func requireSamePositions(t *testing.T, at temporal.Instant, got, want []Position) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("AtInstant(%v) = %v, linear scan %v", at, got, want)
	}
}
