package ingest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"movingdb/internal/baseline"
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
		type pinned struct {
			ep     *Epoch
			probes []temporal.Instant
			want   [][]Position
		}
		var pins []pinned
		pin := func() {
			ep, _, _ := s.publish()
			requireStartsColumns(t, s)
			p := pinned{ep: ep, probes: atInstantProbes(ep)}
			for _, at := range p.probes {
				want := scanAtInstant(ep, at)
				requireSamePositions(t, at, ep.AtInstant(at), want)
				p.want = append(p.want, want)
			}
			pins = append(pins, p)
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
		for _, p := range pins {
			for j, at := range p.probes {
				requireSamePositions(t, at, p.ep.AtInstant(at), p.want[j])
			}
		}
	})
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

func requireSamePositions(t *testing.T, at temporal.Instant, got, want []Position) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("AtInstant(%v) = %v, linear scan %v", at, got, want)
	}
}
