package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

// slotOrder lists a store's object ids in slot order — the order
// /v1/objects, /v1/window and /v1/atinstant follow.
func slotOrder(s *Store) []string {
	ids := make([]string, len(s.objs))
	for i, o := range s.objs {
		ids[i] = o.ID
	}
	return ids
}

// requireSameState requires the pipeline reopened on live's log to
// encode byte-identically to live's store: slots, unit arrays, last
// samples and counters. The starts columns, which are not encoded, must
// hold on both sides.
func requireSameState(t *testing.T, live, replayed *Pipeline) {
	t.Helper()
	if !bytes.Equal(encodeState(replayed.store), encodeState(live.store)) {
		t.Fatalf("replay rebuilt a different state: live slot order %v, replay %v", slotOrder(live.store), slotOrder(replayed.store))
	}
	requireStartsColumns(t, live.store)
	requireStartsColumns(t, replayed.store)
}

// requireStartsColumns requires every track of s to carry one start per
// unit, each its unit's interval start.
func requireStartsColumns(t *testing.T, s *Store) {
	t.Helper()
	for _, o := range s.objs {
		ok := len(o.Starts) == len(o.Units)
		for i := 0; ok && i < len(o.Units); i++ {
			ok = o.Starts[i] == o.Units[i].Iv.Start
		}
		if !ok {
			t.Fatalf("object %q: starts column %v does not match its units %v", o.ID, o.Starts, o.Units)
		}
	}
}

// TestReplayRebuildsServedState: a pipeline reopened on its log serves
// exactly what the live pipeline served. One seeded stream of nine
// objects at uneven rates (d8 reports every step, d0 one step in nine),
// cut into batches of 1 to 13, runs through a pipeline whose size
// trigger fires at 4 pending, so some admissions drain while objects
// seen earlier are still pending. After a final Flush and Close, the
// pipeline reopened on the same page store must encode byte-identically,
// slot order included.
func TestReplayRebuildsServedState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var stream []Observation
	for i, o := range toObservations(workload.New(23).ObservationStream("d", 9, 120, 0, 1, 6)) {
		if rng.Intn(9-i%9) == 0 { // the stream is round-robin: this observation is d(i%9)'s
			stream = append(stream, o)
		}
	}
	m := obs.New(0)
	log := storage.NewPageStore()
	p, err := Open(Config{Log: log, FlushSize: 4, MaxAge: time.Hour, CheckpointPages: -1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); {
		hi := min(lo+1+rng.Intn(13), len(stream))
		if _, err := p.Ingest(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if drains := m.Snapshot().Ingest.Flushes; drains < 2 {
		t.Fatalf("premise: %d size-triggered drains, want several", drains)
	}
	p.Flush()
	p.Close()
	if n := p.store.stats().Objects; n != 9 {
		t.Fatalf("premise: %d objects, want 9", n)
	}
	r, err := Open(Config{Log: log, CheckpointPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameState(t, p, r)
}

// FuzzReplayMatchesLive holds the same contract to arbitrary operation
// sequences. Each op byte picks, by its low two bits, a Flush (0), a
// forced checkpoint (1) or the ingest of a batch of 1 to 4 observations
// (2, 3; the count is bits 2–3), one byte each: the id is one of four
// (bits 0–1), the time steps −1, 0, +1 or +2 from that id's previous one
// (bits 2–3), so drops happen, and x is bits 4–7. With FlushSize 2 the
// size trigger fires often. After a final Flush, the pipeline reopened
// from the log image must encode byte-identically to the live store.
func FuzzReplayMatchesLive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		log := storage.NewPageStore()
		p, err := Open(Config{Log: log, FlushSize: 2, MaxAge: time.Hour, CheckpointPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var last [4]float64
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op & 3 {
			case 0:
				p.Flush()
			case 1:
				forceCheckpoint(p)
			default:
				n := min(1+int(op>>2&3), len(data))
				if n == 0 {
					break
				}
				batch := make([]Observation, n)
				for i, c := range data[:n] {
					id := c & 3
					last[id] += float64(int(c>>2&3) - 1)
					batch[i] = Observation{ObjectID: string("wxyz"[id]), T: last[id], X: float64(c >> 4), Y: 1}
				}
				data = data[n:]
				if _, err := p.Ingest(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.Flush()
		r, _ := reopenFromImage(t, log, Config{CheckpointPages: -1})
		defer r.Close()
		requireSameState(t, p, r)
	})
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
	var ep *Epoch
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
		next, dirty := s.publish(ep)
		advanced := next != ep
		ep = next
		got := []string{}
		for _, d := range dirty {
			got = append(got, d.ID)
		}
		if advanced != (len(want) > 0) || !slices.Equal(got, want) {
			t.Fatalf("round %d: dirty ids %v, want %v", round, got, want)
		}
	}
}
