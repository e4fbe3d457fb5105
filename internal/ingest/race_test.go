package ingest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// TestConcurrentIngestAndQuery hammers the pipeline with writers and
// readers at once — run under -race this is the acceptance check that
// queries never observe the appender mid-mutation (the pipeline lock
// covers in-place updates of the last unit) and epochs tolerate
// concurrent folds. Whatever the interleaving, the writer with the
// latest timestamps gets 10 × 400 observations accepted — alone they
// seal over 330 chunks, more than five folds of 64, so at least one
// fold merges rungs.
func TestConcurrentIngestAndQuery(t *testing.T) {
	g := workload.New(21)
	seedStream := g.ObservationStream("r", 10, 5, 0, 1, 5)
	p, err := Open(Config{FlushSize: 8, MaxAge: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feed(t, p, toObservations(seedStream), 50)

	const writers, readers = 4, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wg2 := workload.New(int64(100 + w))
			stream := toObservations(wg2.ObservationStream("r", 10, 400, temporal.Instant(10+w), 1, 5))
			for lo := 0; lo < len(stream); lo += 7 {
				hi := min(lo+7, len(stream))
				if _, err := p.Ingest(stream[lo:hi]); err != nil {
					// Backpressure is a legal outcome; anything else is
					// not.
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rect := geom.Rect{MinX: float64(i % 900), MinY: 0, MaxX: float64(i%900) + 150, MaxY: 1000}
				_ = p.Epoch().Window(rect, temporal.Closed(0, 100))
				_ = p.Epoch().AtInstant(temporal.Instant(i % 70))
				_ = p.Epoch().Summaries()
				_, _ = p.Epoch().Snapshot("r0")
				_ = p.Stats()
				if i%10 == 0 {
					p.Flush()
				}
				i++
			}
		}(r)
	}

	writersDone := make(chan struct{})
	go func() {
		// Writers finish on their own; readers run until then.
		defer close(writersDone)
		wg.Wait()
	}()
	// Give writers time, then release readers.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-writersDone

	select {
	case err := <-errs:
		t.Fatalf("writer failed: %v", err)
	default:
	}
	p.Flush()
	// Post-conditions: every mapping valid, index consistent.
	for _, sum := range p.Epoch().Summaries() {
		mp, _ := p.Epoch().Snapshot(sum.ID)
		if err := mp.M.Validate(); err != nil {
			t.Fatalf("%s: invalid after concurrent ingest: %v", sum.ID, err)
		}
	}
	p.mu.Lock()
	err = p.store.ladder.Validate()
	p.mu.Unlock()
	if err != nil {
		t.Fatalf("index invalid after concurrent ingest: %v", err)
	}
	if st := p.Stats(); st.IndexMerges == 0 {
		t.Fatalf("no fold merged rungs: %+v", st)
	}
}

// TestStatsIsOneCut: Stats reads the store, the queue and the log in one
// critical section of p.mu, so no admission or drain lands between them.
// In an unseeded pipeline that drops nothing, every applied observation
// is an object's first, a new unit or a compaction, so every reading
// taken beside concurrent ingesters must satisfy applied = objects +
// units + compacted; and every logged observation is applied, dropped or
// queued, so applied + dropped + queue depth must equal the observations
// in log records 1..WALSeq.
func TestStatsIsOneCut(t *testing.T) {
	p, err := Open(Config{FlushSize: 3, MaxAge: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const writers = 4
	var last [writers]uint64 // each writer's last record: 3 observations, every other one 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A prefix per writer: no two writers share an object, so
			// nothing arrives out of time order and nothing is dropped.
			stream := toObservations(workload.New(int64(60+w)).ObservationStream(fmt.Sprintf("w%d-", w), 8, 400, 0, 1, 5))
			for lo := 0; lo < len(stream); lo += 5 {
				seq, err := p.Ingest(stream[lo:min(lo+5, len(stream))])
				if err != nil {
					t.Error(err)
					return
				}
				last[w] = seq
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// A failed reading stops the readings, not the test: the writers
	// finish before the deferred Close. The log half of each reading is
	// checked once the writers' last records are known.
	type reading struct {
		seq    uint64
		logged int64 // applied + dropped + queued
	}
	var readings []reading
	oneCut := func(st Stats) bool {
		if st.Dropped != 0 || st.Applied != int64(st.Objects+st.Units)+st.Compacted {
			t.Errorf("not one cut: applied %d, objects %d + units %d + compacted %d, dropped %d", st.Applied, st.Objects, st.Units, st.Compacted, st.Dropped)
			return false
		}
		readings = append(readings, reading{st.WALSeq, st.Applied + st.Dropped + int64(st.QueueDepth)})
		return true
	}
	for running := true; running && oneCut(p.Stats()); {
		select {
		case <-done:
			running = false
		default:
		}
	}
	<-done
	for _, r := range readings {
		want := 5 * int64(r.seq)
		for _, s := range last {
			if s <= r.seq {
				want -= 2
			}
		}
		if r.logged != want {
			t.Fatalf("not one cut: applied + dropped + queued = %d, log records 1..%d hold %d observations", r.logged, r.seq, want)
		}
	}
	p.Flush()
	if st := p.Stats(); oneCut(st) && st.Applied != writers*8*401 {
		t.Fatalf("applied %d of %d observations", st.Applied, writers*8*401)
	}
}

// TestCloseRacesIngest: Close may land while ingesters are admitting
// batches. Every batch acknowledged with a nil error is applied by the
// time Close returns, and an Ingest after Close is refused with
// ErrClosed. Under -race this also holds Close to setting the closed
// flag under p.mu, where admit reads it.
func TestCloseRacesIngest(t *testing.T) {
	p, err := Open(Config{FlushSize: 4, MaxAge: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const ingesters = 4
	var acked [ingesters]int64
	var started, wg sync.WaitGroup
	for w := 0; w < ingesters; w++ {
		started.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One object per ingester with rising times: nothing is
			// dropped, so every acknowledged observation is applied.
			id := fmt.Sprintf("c%d", w)
			for k := 0; ; k++ {
				batch := []Observation{
					{ObjectID: id, T: float64(2 * k), X: float64(k), Y: 0},
					{ObjectID: id, T: float64(2*k + 1), X: float64(k), Y: 1},
				}
				_, err := p.Ingest(batch)
				if k == 0 {
					started.Done()
				}
				switch {
				case err == nil:
					acked[w] += int64(len(batch))
				case errors.Is(err, ErrClosed):
					return
				case !errors.Is(err, ErrBackpressure):
					t.Error(err)
					return
				}
			}
		}(w)
	}
	started.Wait()
	p.Close()
	wg.Wait()
	var want int64
	for _, n := range acked {
		want += n
	}
	if st := p.Stats(); st.Applied != want {
		t.Errorf("applied %d observations, acknowledged %d", st.Applied, want)
	}
	if _, err := p.Ingest([]Observation{{ObjectID: "late", T: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Close: err = %v, want ErrClosed", err)
	}
}
