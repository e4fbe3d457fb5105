package index

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"movingdb/internal/geom"
)

// The differential net over the ladder: whatever rungs Fold builds,
// Snapshot.Search must equal a linear scan of the entries folded before
// the capture and Snapshot.Nearest must equal brute force over them. The
// harness only uses the exported surface, so it runs unchanged against
// any implementation.

// dynModel is a ladder under test beside the oracle: every folded entry
// in insertion order, and the captured snapshots with the length of that
// log at capture time.
type dynModel struct {
	t      *testing.T
	rng    *rand.Rand
	ladder Snapshot
	all    []Entry
	clock  float64
	snaps  []dynCapture
}

type dynCapture struct {
	snap Snapshot
	n    int // entries folded before the capture
}

// insertRun inserts n fresh cubes. Time-ordered runs advance the clock
// the way ingest does (each rung becomes a time slab); shuffled runs
// scatter over the whole history. single folds them one entry at a
// time. coincident runs are a tick of parked trackers: equal
// extents at four lattice points and one instant, so whole slabs of the
// fold's sort keys tie and the order falls to the input position.
func (m *dynModel) insertRun(n int, shuffled, single, coincident bool) {
	lo := len(m.all)
	for i := 0; i < n; i++ {
		x, y := m.rng.Float64()*100, m.rng.Float64()*100
		w, h, dur := m.rng.Float64()*8, m.rng.Float64()*8, m.rng.Float64()*4
		t0 := m.clock
		switch {
		case coincident:
			x, y, w, h, dur = float64(m.rng.Intn(2))*50, float64(m.rng.Intn(2))*50, 8, 8, 4
		case shuffled:
			t0 = m.rng.Float64() * (m.clock + 50)
		default:
			m.clock += m.rng.Float64() * 0.05
		}
		m.all = append(m.all, Entry{
			Cube: geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, MinT: t0, MaxT: t0 + dur},
			ID:   int64(len(m.all)),
		})
	}
	if !single {
		m.ladder, _ = m.ladder.Fold(m.all[lo:])
	} else {
		for i := lo; i < len(m.all); i++ {
			m.ladder, _ = m.ladder.Fold(m.all[i : i+1])
		}
	}
	if got := m.ladder.Len(); got != len(m.all) {
		m.t.Fatalf("Len = %d after %d inserts", got, len(m.all))
	}
	if err := m.ladder.Validate(); err != nil {
		m.t.Fatalf("Validate after %d inserts: %v", len(m.all), err)
	}
}

func (m *dynModel) capture() {
	if len(m.snaps) < 6 {
		m.snaps = append(m.snaps, dynCapture{m.ladder, len(m.all)})
	}
}

// views is every captured snapshot plus one taken now.
func (m *dynModel) views() []dynCapture {
	return append(slices.Clip(m.snaps), dynCapture{m.ladder, len(m.all)})
}

func (m *dynModel) window(a, b byte) {
	x, y := float64(a)/255*100, float64(b)/255*100
	q := geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + m.rng.Float64()*30, MaxY: y + m.rng.Float64()*30}}
	q.MinT = m.rng.Float64() * (m.clock + 10)
	q.MaxT = q.MinT
	if b&1 == 0 { // a period rather than an instant
		q.MaxT += m.rng.Float64() * (m.clock + 10)
	}
	for vi, v := range m.views() {
		if v.snap.Len() != v.n {
			m.t.Fatalf("view %d: snapshot Len = %d, captured after %d inserts", vi, v.snap.Len(), v.n)
		}
		// Search appends in no particular order, after what out holds.
		got, _ := v.snap.Search(q, []int64{-7})
		if want := scanWindow(m.all[:v.n], q); got[0] != -7 || !slices.Equal(sorted(got[1:]), want) {
			m.t.Fatalf("view %d (%d of %d entries): Search = %v, scan = %v", vi, v.n, len(m.all), got, want)
		}
	}
}

func (m *dynModel) nearest(a, b byte) {
	x, y := float64(a)/255*120-10, float64(b)/255*120-10
	tq := m.rng.Float64() * (m.clock + 5)
	k, radius := 1+m.rng.Intn(12), -1.0
	switch a % 3 {
	case 1:
		radius = 5 + m.rng.Float64()*40
	case 2:
		k, radius = 0, 5+m.rng.Float64()*40
	}
	refine := func(id int64) (int64, float64, bool) {
		return id, centreDist(m.all[id], x, y), id%11 != 0
	}
	for vi, v := range m.views() {
		got, _ := v.snap.Nearest(x, y, tq, k, radius, refine)
		if want := bruteNearest(m.all[:v.n], x, y, tq, k, radius); !slices.Equal(got, want) {
			m.t.Fatalf("view %d (%d of %d entries) k=%d r=%.1f: Nearest = %v, brute force = %v", vi, v.n, len(m.all), k, radius, got, want)
		}
	}
}

// scanWindow is the Search oracle: the ids of the intersecting entries,
// ascending.
func scanWindow(entries []Entry, q geom.Cube) []int64 {
	var out []int64
	for _, e := range entries {
		if e.Cube.Intersects(q) {
			out = append(out, e.ID)
		}
	}
	slices.Sort(out)
	return out
}

// sorted returns a sorted copy of ids: Snapshot.Search's order is
// unspecified, so its answers compare as sets.
func sorted(ids []int64) []int64 {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}

// centreDist is the harness's exact distance: to the centre of the
// entry's rectangle, which is never closer than the rectangle itself —
// the lower-bound contract Nearest's pruning relies on.
func centreDist(e Entry, x, y float64) float64 {
	return math.Hypot((e.Cube.Rect.MinX+e.Cube.Rect.MaxX)/2-x, (e.Cube.Rect.MinY+e.Cube.Rect.MaxY)/2-y)
}

// bruteNearest is the Nearest oracle for refine = (id, centreDist,
// id%11 != 0): every live entry covering t within the radius, by
// (distance, id), the first k.
func bruteNearest(entries []Entry, x, y, t float64, k int, radius float64) []Neighbor {
	var out []Neighbor
	for _, e := range entries {
		if e.ID%11 == 0 || t < e.Cube.MinT || t > e.Cube.MaxT {
			continue
		}
		if d := centreDist(e, x, y); radius < 0 || d <= radius {
			out = append(out, Neighbor{Key: e.ID, Dist: d})
		}
	}
	slices.SortFunc(out, func(a, b Neighbor) int {
		if a.Dist != b.Dist {
			return cmp.Compare(a.Dist, b.Dist)
		}
		return int(a.Key - b.Key)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// checkDynamicOps runs an op stream, three bytes per op: the low two
// bits of the first pick insert / capture / window / nearest, three more
// shape an insert run (4 shuffled times, 8 single-entry folds, 64
// coincident centres), and the other two bytes carry the run length or
// the query position.
func checkDynamicOps(t *testing.T, seed int64, data []byte) {
	const maxOps, maxEntries = 48, 24000
	m := &dynModel{t: t, rng: rand.New(rand.NewSource(seed))}
	for op := 0; op < maxOps && 3*op+2 < len(data); op++ {
		kind, a, b := data[3*op], data[3*op+1], data[3*op+2]
		switch kind & 3 {
		case 0:
			if n := 1 + (int(a)|int(b)<<8)%2000; len(m.all)+n <= maxEntries {
				m.insertRun(n, kind&4 != 0, kind&8 != 0, kind&64 != 0)
			}
		case 1:
			m.capture()
		case 2:
			m.window(a, b)
		case 3:
			m.nearest(a, b)
		}
	}
	m.window(128, 128)
	m.nearest(128, 128)
}

// FuzzDynamic lets the fuzzer spell the op stream. The seeds cover an
// empty index, runs that straddle the first fold, a snapshot held
// across many folds, shuffled-time inserts (rungs that are not time
// slabs), folds over coincident centres, and a carry chain whose last
// fold (8000 entries: runs of 128) sorts runs on both sides of the radix
// cut-over.
func FuzzDynamic(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{2, 9, 9, 3, 9, 9})
	f.Add(int64(3), []byte{0, 255, 1, 1, 0, 0, 0, 1, 0, 2, 40, 40, 3, 40, 40})
	f.Add(int64(4), []byte{8, 200, 2, 1, 0, 0, 8, 200, 2, 8, 200, 2, 2, 10, 200, 3, 100, 7, 0, 207, 7, 3, 30, 30})
	f.Add(int64(5), []byte{4, 207, 7, 1, 0, 0, 12, 100, 3, 4, 207, 7, 2, 77, 3, 3, 200, 100, 0, 207, 7, 0, 207, 7, 2, 0, 0})
	f.Add(int64(6), []byte{0, 207, 7, 0, 207, 7, 1, 0, 0, 0, 207, 7, 0, 207, 7, 0, 207, 7, 1, 0, 0, 0, 207, 7, 0, 207, 7, 0, 207, 7, 2, 50, 50, 3, 50, 50})
	f.Add(int64(7), []byte{64, 207, 7, 1, 0, 0, 64, 87, 2, 0, 207, 7, 72, 44, 1, 2, 0, 0, 2, 128, 128, 3, 0, 0, 3, 127, 127, 64, 207, 7, 2, 127, 1, 3, 255, 255})
	f.Add(int64(8), []byte{0, 207, 7, 0, 207, 7, 1, 0, 0, 0, 207, 7, 64, 207, 7, 2, 60, 60, 3, 60, 60, 2, 0, 0, 3, 0, 0})
	f.Fuzz(checkDynamicOps)
}

// TestDynamicMatchesOracle is the seeded property test over the same
// harness: random op streams, weighted towards inserts so every stream
// crosses several folds.
func TestDynamicMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*40)
		rng.Read(data)
		for op := 0; op < len(data)/3; op++ {
			if rng.Intn(3) == 0 {
				data[3*op] &^= 3 // force an insert run
			}
		}
		checkDynamicOps(t, seed, data)
	}
}

// answersOf serialises a fixed battery of window and k-NN answers over
// one snapshot.
func answersOf(s Snapshot, all []Entry) []byte {
	var buf []byte
	for i := 0; i < 40; i++ {
		x, y := float64((i*37)%90), float64((i*53)%90)
		q := geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 15, MaxY: y + 15}, MinT: float64(i), MaxT: float64(i + i%5)}
		ids, _ := s.Search(q, nil)
		slices.Sort(ids)
		nn, _ := s.Nearest(x, y, float64(i), 5, -1, func(id int64) (int64, float64, bool) {
			return id, centreDist(all[id], x, y), true
		})
		buf = fmt.Appendf(buf, "%v %v\n", ids, nn)
	}
	return buf
}

// TestSnapshotIsolation: a ladder captured before further folds answers
// byte-identically while they happen and afterwards. Run under -race it
// also proves the captured value shares no mutable state with the
// writer's later folds.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	all := randomCubes(rng, 9000)
	const captured = 1300
	snap := Snapshot{}.WithRung(Build(slices.Clone(all[:300])))
	for lo := 300; lo < captured; lo += 64 {
		snap, _ = snap.Fold(all[lo:min(lo+64, captured)])
	}
	want := answersOf(snap, all)
	if got := scanWindow(all[:captured], geom.Cube{Rect: geom.Rect{MaxX: 200, MaxY: 200}, MaxT: 200}); len(got) != captured || snap.Len() != captured {
		t.Fatalf("fixture: snapshot Len = %d, scan sees %d, want %d", snap.Len(), len(got), captured)
	}

	var wg sync.WaitGroup
	var ladder Snapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		ladder = snap
		for lo := captured; lo < len(all); {
			hi := min(lo+1+(lo*7)%97, len(all))
			ladder, _ = ladder.Fold(all[lo:hi])
			lo = hi
		}
	}()
	for i := 0; i < 8; i++ {
		if got := answersOf(snap, all); !bytes.Equal(got, want) {
			t.Errorf("pass %d beside the writer: captured snapshot answered differently", i)
			break
		}
	}
	wg.Wait()

	if got := answersOf(snap, all); !bytes.Equal(got, want) {
		t.Fatal("captured snapshot answered differently after the writer finished")
	}
	if snap.Len() != captured || ladder.Len() != len(all) {
		t.Fatalf("Len: snapshot %d (want %d), ladder %d (want %d)", snap.Len(), captured, ladder.Len(), len(all))
	}
	q := geom.Cube{Rect: geom.Rect{MinX: 20, MinY: 20, MaxX: 60, MaxY: 60}, MinT: 10, MaxT: 70}
	if got, _ := ladder.Search(q, nil); !slices.Equal(sorted(got), scanWindow(all, q)) {
		t.Fatal("ladder after the writer finished disagrees with the scan")
	}
}
