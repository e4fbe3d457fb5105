package ingest

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

// applyPerObject is the application the drain replaced, kept as the
// reference: one Store.Apply per object's run. A drain takes each
// object's buffer at most once, so the runs are the maximal stretches of
// one id.
func applyPerObject(s *Store, run []Observation) {
	for lo := 0; lo < len(run); {
		hi := lo + 1
		for hi < len(run) && run[hi].ObjectID == run[lo].ObjectID {
			hi++
		}
		s.Apply(run[lo:hi])
		lo = hi
	}
}

// unitsByID renders what a store holds per object id, slot order aside.
func unitsByID(s *Store) map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.objs))
	for _, o := range s.objs {
		out[o.ID] = fmt.Sprintf("%v last=%v seen=%v", o.Units, o.Last, o.Seen)
	}
	return out
}

// TestDrainMatchesPerObjectApply is the differential net under "one
// apply per batcher operation": one seeded multi-object stream — uneven
// rates, so some objects reach the size trigger while others wait, are
// re-admitted and flush again; repeated timestamps, so some observations
// are dropped — runs through one batcher whose sink applies each drain
// to one store in a single call and to a second store run by run. Slots,
// unit arrays, counters, index entry ids, epochs and dirty lists must be
// identical, the sink must be called exactly once per operation that
// drained anything, and replaying the logged batches (what Open does)
// must rebuild the same objects.
func TestDrainMatchesPerObjectApply(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var stream []Observation
	for i, o := range toObservations(workload.New(23).ObservationStream("d", 9, 120, 0, 1, 6)) {
		k := i % 9              // the stream is round-robin: this observation is dk's
		if rng.Intn(k+1) == 0 { // d0 reports every step, d8 one step in nine
			stream = append(stream, o)
			if rng.Intn(25) == 0 {
				stream = append(stream, Observation{ObjectID: o.ObjectID, T: o.T - float64(rng.Intn(3)), X: o.X + 1, Y: o.Y})
			}
		}
	}

	drained, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	reference, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	var applies, publishes, sizeFlushes int
	var dirtyDrained, dirtyReference [][]DirtyObject
	var logged [][]Observation
	perDrain := map[string]int{} // drains that carried the object
	b := newBatcher(4, 1<<20, time.Hour, func(run []Observation) {
		applies++
		seen := map[string]bool{}
		for _, o := range run {
			if !seen[o.ObjectID] {
				seen[o.ObjectID] = true
				perDrain[o.ObjectID]++
			}
		}
		drained.Apply(run)
		applyPerObject(reference, run)
	}, func() {
		publishes++
		_, d, _ := drained.publish()
		_, r, _ := reference.publish()
		dirtyDrained, dirtyReference = append(dirtyDrained, d), append(dirtyReference, r)
	})
	defer b.close()
	log := func(batch []Observation) (uint64, error) {
		logged = append(logged, slices.Clone(batch))
		return uint64(len(logged)), nil
	}
	// op runs one batcher operation and holds it to one sink call.
	op := func(name string, f func()) bool {
		t.Helper()
		before, beforePub := applies, publishes
		f()
		if applies-before > 1 || applies-before != publishes-beforePub {
			t.Fatalf("%s: %d applies and %d publishes in one batcher operation", name, applies-before, publishes-beforePub)
		}
		return applies > before
	}
	for lo, n := 0, 0; lo < len(stream); n++ {
		hi := min(lo+1+rng.Intn(13), len(stream))
		if op("enqueue", func() {
			if _, err := b.enqueue(stream[lo:hi], log); err != nil {
				t.Fatal(err)
			}
		}) {
			sizeFlushes++
		}
		lo = hi
		switch {
		case n%17 == 16:
			op("flushAll", b.flushAll)
		case n%29 == 28:
			op("quiesce", func() { b.quiesce(func() {}) })
		case n%7 == 6:
			if op("flushAged", b.flushAged) {
				t.Fatal("flushAged drained a buffer younger than an hour")
			}
		}
	}
	op("flushAll", b.flushAll)
	if b.depth() != 0 {
		t.Fatalf("%d observations still queued after the final flush", b.depth())
	}

	// The stream must have exercised what the test is about.
	if _, dropped, _ := drained.Counters(); dropped == 0 || sizeFlushes == 0 || perDrain["d0"] < 2*perDrain["d8"] {
		t.Fatalf("premise: %d dropped, %d size-trigger drains, d0 in %d drains, d8 in %d", dropped, sizeFlushes, perDrain["d0"], perDrain["d8"])
	}
	if applies >= len(logged) {
		t.Fatalf("premise: %d applies for %d admissions — nothing was batched", applies, len(logged))
	}

	if !bytes.Equal(encodeState(drained), encodeState(reference)) {
		t.Fatal("slots, unit arrays or counters differ between one apply per drain and one per object")
	}
	inf := math.Inf(1)
	everything := geom.Cube{Rect: geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}, MinT: -inf, MaxT: inf}
	gotIDs, _ := drained.idx.Search(everything, nil)
	wantIDs, _ := reference.idx.Search(everything, nil)
	slices.Sort(gotIDs) // the ladder's search order is unspecified
	slices.Sort(wantIDs)
	if !slices.Equal(gotIDs, wantIDs) || len(gotIDs) == 0 {
		t.Fatalf("index entry ids differ: %d v %d", len(gotIDs), len(wantIDs))
	}
	if drained.CurrentEpoch().Seq() != reference.CurrentEpoch().Seq() || !slices.EqualFunc(dirtyDrained, dirtyReference, slices.Equal[[]DirtyObject]) {
		t.Fatal("epoch sequence or dirty lists differ")
	}
	for _, d := range dirtyDrained {
		if !slices.IsSortedFunc(d, func(a, b DirtyObject) int { return strings.Compare(a.ID, b.ID) }) {
			t.Fatalf("dirty list not in id order: %+v", d)
		}
	}

	replayed, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range logged {
		replayed.Apply(batch)
	}
	if got, want := unitsByID(replayed), unitsByID(drained); !maps.Equal(got, want) {
		t.Fatal("replaying the logged batches rebuilt different objects")
	}
	ra, rd, rc := replayed.Counters()
	if a, d, c := drained.Counters(); ra != a || rd != d || rc != c {
		t.Fatalf("replay counters %d/%d/%d, live %d/%d/%d", ra, rd, rc, a, d, c)
	}
}

// TestDirtyOrderAcrossRegistrations: the dirty list stays in ascending
// id order when objects register over several publishes in an order
// unrelated to their ids — the id rank is extended, not rebuilt — and
// when only some of them move.
func TestDirtyOrderAcrossRegistrations(t *testing.T) {
	s, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var known []string
	for round := 0; round < 12; round++ {
		var batch []Observation
		for i := 0; i < 1+rng.Intn(6); i++ {
			id := fmt.Sprintf("obj%03d", rng.Intn(1000))
			if !slices.Contains(known, id) {
				known = append(known, id)
			}
		}
		want := []string{}
		for _, id := range known {
			if rng.Intn(3) > 0 || round == 0 {
				batch = append(batch, Observation{ObjectID: id, T: float64(round), X: rng.Float64(), Y: rng.Float64()})
				want = append(want, id)
			}
		}
		slices.Sort(want)
		s.Apply(batch)
		_, dirty, advanced := s.publish()
		got := []string{}
		for _, d := range dirty {
			got = append(got, d.ID)
		}
		if advanced != (len(want) > 0) || !slices.Equal(got, want) {
			t.Fatalf("round %d: dirty ids %v, want %v", round, got, want)
		}
	}
}
