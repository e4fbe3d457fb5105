package ingest

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

func worldWindow() (geom.Rect, temporal.Interval) {
	return geom.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9},
		temporal.Closed(temporal.Instant(-1e9), temporal.Instant(1e9))
}

// TestEpochReadersNeverBlockOnFlush is the lock-freedom proof: with the
// pipeline mutex held — the state every admission, drain and checkpoint
// puts the write path in — Epoch() and queries against a published
// epoch still complete. Pre-epoch, these reads took a store mutex and
// would deadlock here.
func TestEpochReadersNeverBlockOnFlush(t *testing.T) {
	g := workload.New(5)
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Ingest(toObservations(g.ObservationStream("b", 6, 40, 0, 1, 4))); err != nil {
		t.Fatal(err)
	}
	p.Flush()

	p.mu.Lock() // a flush apply is "in progress" forever
	defer p.mu.Unlock()

	done := make(chan int, 1)
	go func() {
		ep := p.Epoch()
		rect, iv := worldWindow()
		n := len(ep.Window(rect, iv))
		n += len(ep.AtInstant(20))
		n += len(ep.Summaries())
		if _, ok := ep.Snapshot("b0"); ok {
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n == 0 {
			t.Fatal("epoch queries returned nothing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("epoch reader blocked on the pipeline mutex")
	}
}

// TestEpochSnapshotIsolation pins the COW contract: an epoch captured
// before further ingestion answers exactly as it did at capture time,
// even as the appender re-opens and extends the very unit arrays the
// epoch aliases (continuation merges mutate units[n-1] in place — the
// epoch must hold a value copy of that tail).
func TestEpochSnapshotIsolation(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	obs := func(id string, t0 float64, n int) []Observation {
		out := make([]Observation, n)
		for i := range out {
			out[i] = Observation{ObjectID: id, T: t0 + float64(i), X: float64(i), Y: 1}
		}
		return out
	}
	if _, err := p.Ingest(obs("iso", 0, 4)); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	old := p.Epoch()
	oldSum := old.Summaries()
	oldSnap, ok := old.Snapshot("iso")
	if !ok {
		t.Fatal("iso missing from epoch")
	}
	oldUnits := oldSnap.M.Len()
	rect, iv := worldWindow()
	oldIDs := old.Window(rect, iv)
	oldAt := old.AtInstant(2)

	// Continue the same trajectory (tail re-open + merge) and add a new
	// object, across several flushes.
	for round := 0; round < 3; round++ {
		if _, err := p.Ingest(obs("iso", float64(4+round*3), 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Ingest(obs(fmt.Sprintf("new%d", round), 0, 3)); err != nil {
			t.Fatal(err)
		}
		p.Flush()
	}

	cur := p.Epoch()
	if cur.Seq() <= old.Seq() {
		t.Fatalf("epoch did not advance: %d -> %d", old.Seq(), cur.Seq())
	}
	if got, _ := cur.Snapshot("iso"); got.M.Len() <= oldUnits {
		t.Fatalf("current epoch lost the continuation: %d units", got.M.Len())
	}
	if len(cur.Window(rect, iv)) != 4 {
		t.Fatalf("current epoch window = %v", cur.Window(rect, iv))
	}

	// The old epoch is frozen: same summaries, same window, same
	// interpolation, same unit count.
	if got := old.Summaries(); len(got) != len(oldSum) || got[0] != oldSum[0] {
		t.Fatalf("old epoch summaries drifted: %v vs %v", got, oldSum)
	}
	if got := old.Window(rect, iv); len(got) != len(oldIDs) {
		t.Fatalf("old epoch window drifted: %v vs %v", got, oldIDs)
	}
	if got := old.AtInstant(2); len(got) != len(oldAt) || got[0] != oldAt[0] {
		t.Fatalf("old epoch atinstant drifted: %v vs %v", got, oldAt)
	}
	if got, _ := old.Snapshot("iso"); got.M.Len() != oldUnits {
		t.Fatalf("old epoch snapshot drifted: %d units, want %d", got.M.Len(), oldUnits)
	}
}

// TestEpochEquivalence cross-checks the epoch read path against the
// materialised MPoint snapshots (the paper-layer ground truth): window
// membership and atinstant positions computed from the epoch views must
// equal brute-force evaluation over Snapshot(id).
func TestEpochEquivalence(t *testing.T) {
	g := workload.New(29)
	p, err := Open(Config{FlushSize: 16, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stream := toObservations(g.ObservationStream("e", 10, 80, 0, 1, 4))
	for lo := 0; lo < len(stream); lo += 23 {
		if _, err := p.Ingest(stream[lo:min(lo+23, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	ep := p.Epoch()

	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40},
		{MinX: 20, MinY: 10, MaxX: 60, MaxY: 50},
		{MinX: -10, MinY: -10, MaxX: 5, MaxY: 5},
	}
	ivs := []temporal.Interval{
		temporal.Closed(0, 30),
		temporal.Closed(25, 60),
	}
	sums := ep.Summaries()
	objs := make([]moving.MPoint, len(sums))
	for i, sum := range sums {
		m, ok := ep.Snapshot(sum.ID)
		if !ok {
			t.Fatalf("no snapshot for %s", sum.ID)
		}
		objs[i] = m
	}
	for _, rect := range rects {
		for _, iv := range ivs {
			if got, want := ep.Window(rect, iv), scanWindow(ep, rect, iv); !slices.Equal(got, want) {
				t.Fatalf("rect %v iv %v: epoch window %v, brute force %v", rect, iv, got, want)
			}
		}
	}
	for _, ti := range []temporal.Instant{0, 17, 42, 79} {
		got := ep.AtInstant(ti)
		positions := map[string][2]float64{}
		for _, pos := range got {
			positions[pos.ID] = [2]float64{pos.X, pos.Y}
		}
		n := 0
		for i, sum := range sums {
			if v := objs[i].AtInstant(ti); v.Defined() {
				n++
				if p, ok := positions[sum.ID]; !ok || p[0] != v.P.X || p[1] != v.P.Y {
					t.Fatalf("t=%v %s: epoch %v, snapshot (%v, %v)", ti, sum.ID, p, v.P.X, v.P.Y)
				}
			}
		}
		if n != len(got) {
			t.Fatalf("t=%v: epoch returned %d positions, brute force %d", ti, len(got), n)
		}
	}
}

// TestEpochWindowLaterCandidateRefines: an index entry is a chunk of
// units, so Window must walk a candidate chunk past its first unit.
// "zig" has nine units, so chunk 0 (units 0–7) is sealed and chunk 1
// (unit 8) is open. Unit 0 runs the diagonal (0,0)→(10,10): its box
// covers the window [3,5]×[8,10] but the path never enters it. Unit 1
// runs (10,10)→(0,10) and does; units 2–8 stay clear of it. "dot" sits
// still outside the window.
func TestEpochWindowLaterCandidateRefines(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	obs := []Observation{{ObjectID: "dot", T: 0, X: 20, Y: 20}, {ObjectID: "dot", T: 90, X: 20, Y: 20}}
	for i, pt := range [][2]float64{{0, 0}, {10, 10}, {0, 10}, {0, 20}, {20, 20}, {20, 30}, {30, 30}, {30, 40}, {40, 40}, {40, 50}} {
		obs = append(obs, Observation{ObjectID: "zig", T: float64(10 * i), X: pt[0], Y: pt[1]})
	}
	if _, err := p.Ingest(obs); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	ep := p.Epoch()
	rect, iv := geom.Rect{MinX: 3, MinY: 8, MaxX: 5, MaxY: 10}, temporal.Closed(0, 90)

	// The premise: the index holds one sealed chunk, still waiting for a
	// fold, and it is zig's one candidate, chunk 0, whose first unit refines false and whose second
	// refines true.
	zi := ep.ids["zig"]
	zig := ep.objs[zi]
	cands, _ := ep.idx.Search(geom.Cube{Rect: rect, MinT: 0, MaxT: 90}, nil)
	var chunks []int
	for _, id := range cands {
		if int(id>>32) == zi {
			chunks = append(chunks, int(id&0xffffffff))
		}
	}
	st := p.Stats()
	if sealed := st.RungEntries + st.TailEntries; sealed != 1 || len(zig.starts) != 9 || len(chunks) != 1 || chunks[0] != 0 {
		t.Fatalf("premise: %d sealed chunks, zig has %d units, candidate chunks %v; want 1, 9, [0]", sealed, len(zig.starts), chunks)
	}
	if index.UPointInWindow(*zig.unit(0), rect, iv) || !index.UPointInWindow(*zig.unit(1), rect, iv) {
		t.Fatal("premise: want unit 0 outside the window and unit 1 inside")
	}
	if got := ep.Window(rect, iv); len(got) != 1 || got[0] != "zig" {
		t.Fatalf("Window = %v, want [zig]", got)
	}
}

// TestConcurrentIngestAndEpochReads races continuous ingestion (with
// continuation merges and, 291 sealed chunks being more than four folds
// of 64, index folds that merge rungs) against continuous epoch
// queries — the race detector proves the COW publication protocol: no
// read ever touches memory a writer mutates.
func TestConcurrentIngestAndEpochReads(t *testing.T) {
	g := workload.New(41)
	p, err := Open(Config{FlushSize: 8, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stream := toObservations(g.ObservationStream("r", 12, 300, 0, 1, 4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for lo := 0; lo < len(stream); lo += 17 {
			if _, err := p.Ingest(stream[lo:min(lo+17, len(stream))]); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			if lo%5 == 0 {
				p.Flush()
			}
		}
		p.Flush()
	}()
	rect, iv := worldWindow()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := p.Epoch()
				if ep.Seq() < lastSeq {
					t.Errorf("epoch went backward: %d after %d", ep.Seq(), lastSeq)
					return
				}
				lastSeq = ep.Seq()
				// An object with one observation has a position but no unit
				// yet, so the world window cannot contain it.
				moving := 0
				for _, sum := range ep.Summaries() {
					if sum.Units > 0 {
						moving++
					}
				}
				if ids := ep.Window(rect, iv); len(ids) != moving {
					t.Errorf("epoch %d: window %d ids, %d objects with units", ep.Seq(), len(ids), moving)
					return
				}
				ep.AtInstant(50)
			}
		}()
	}
	wg.Wait()

	final := p.Epoch()
	if got := len(final.Window(rect, iv)); got != 12 {
		t.Fatalf("final window = %d objects, want 12", got)
	}
	if st := p.Stats(); st.IndexMerges == 0 {
		t.Fatalf("no fold merged rungs: %+v", st)
	}
}

// TestWindowRefinementIsExact: an object whose bounding cube meets the
// window but whose path never enters it is not reported, and the
// temporal constraint is refined as exactly as the spatial one.
func TestWindowRefinementIsExact(t *testing.T) {
	p, err := moving.MPointFromSamples([]moving.Sample{
		{T: 0, P: geom.Pt(0, 10)},
		{T: 10, P: geom.Pt(10, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Frozen([]string{"diag"}, []moving.MPoint{p})
	if err != nil {
		t.Fatal(err)
	}
	// Window in the lower-left corner: the cube [0,10]² intersects it,
	// the diagonal path x+y=10 does not.
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}
	if got := ep.Window(rect, temporal.Closed(0, 10)); len(got) != 0 {
		t.Fatalf("false positive: %v", got)
	}
	// A window the path clips.
	rect2 := geom.Rect{MinX: 4, MinY: 4, MaxX: 7, MaxY: 7}
	if got := ep.Window(rect2, temporal.Closed(0, 10)); len(got) != 1 {
		t.Fatalf("missed hit: %v", got)
	}
	// Same window, but a query interval before the crossing time
	// (crossing happens around t ∈ [3, 7]).
	if got := ep.Window(rect2, temporal.Closed(0, 2)); len(got) != 0 {
		t.Fatalf("temporal refinement failed: %v", got)
	}
}
