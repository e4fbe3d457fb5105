package ingest

import (
	"sync"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// TestConcurrentIngestAndQuery hammers the pipeline with writers and
// readers at once — run under -race this is the acceptance check that
// queries never observe the appender mid-mutation (the store lock
// covers in-place tail updates) and the index tolerates concurrent
// inserts, folds and searches. Whatever the interleaving, the writer
// with the latest timestamps gets 10 × 400 observations accepted — alone
// they seal over 330 chunks, past five full index tails, so at least one
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
	if err := p.store.idx.Validate(); err != nil {
		t.Fatalf("index invalid after concurrent ingest: %v", err)
	}
	if st := p.Stats(); st.IndexMerges == 0 {
		t.Fatalf("no fold merged rungs: %+v", st)
	}
}
