package ingest

import (
	"sync"
	"testing"

	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// TestWALQuarantineVsStatsRace reproduces the violation the guarded-by
// check surfaced: wal.quarantine used to mutate quarantinedPages
// without w.mu while stats() reads it under it. openWAL's scan is single-threaded, so the bug was latent —
// but nothing stops a post-open caller, and this test is exactly that
// caller. Under -race it fails against the unlocked quarantine and
// passes now that quarantine takes the lock.
func TestWALQuarantineVsStatsRace(t *testing.T) {
	ps := storage.NewPageStore()
	w, _, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			w.quarantine(1, "test")
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			_ = w.stats()
		}
	}()
	close(start)
	wg.Wait()

	if got := w.stats().quarantinedPages; got != 200 {
		t.Fatalf("quarantinedPages = %d, want 200", got)
	}
}
