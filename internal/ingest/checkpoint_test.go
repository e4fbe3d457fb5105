package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

// fingerprint renders the queryable state of a pipeline: every object's
// full unit array plus the admission counters. Two pipelines with equal
// fingerprints answer every atinstant/window query identically.
func fingerprint(p *Pipeline) string {
	var buf bytes.Buffer
	for _, s := range p.Epoch().Summaries() {
		m, _ := p.Epoch().Snapshot(s.ID)
		fmt.Fprintf(&buf, "%s: %v\n", s.ID, m.M.Units())
	}
	st := p.store.stats()
	fmt.Fprintf(&buf, "counters: %d %d %d\n", st.Applied, st.Dropped, st.Compacted)
	return buf.String()
}

// reopenFromImage round-trips the WAL medium through its durable image
// (WriteTo/ReadPageStore — the crash model) and opens a pipeline on it.
func reopenFromImage(t *testing.T, ps *storage.PageStore, cfg Config) (*Pipeline, *storage.PageStore) {
	t.Helper()
	var img bytes.Buffer
	if _, err := ps.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	recovered, err := storage.ReadPageStore(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Log = recovered
	cfg.LogIO = nil
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, recovered
}

// forceCheckpoint writes a checkpoint whether or not one is due,
// keeping the previous one: the tests' way to place a checkpoint at an
// exact point of the log.
func forceCheckpoint(p *Pipeline) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkpointLocked(false)
}

// ingestStream pushes the stream through p in small batches, fataling
// on any rejection.
func ingestStream(t *testing.T, p *Pipeline, stream []Observation, chunk int) {
	t.Helper()
	for lo := 0; lo < len(stream); lo += chunk {
		if _, err := p.Ingest(stream[lo:min(lo+chunk, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointBoundsReplay drives enough traffic to cross the
// checkpoint threshold repeatedly and checks the contract: checkpoints
// happen, compaction keeps the log near two checkpoint intervals
// instead of growing with history, and a restart from the compacted
// image reproduces the exact pre-crash state.
func TestCheckpointBoundsReplay(t *testing.T) {
	g := workload.New(11)
	stream := toObservations(g.ObservationStream("o", 8, 60, 0, 1, 4))
	cfg := Config{FlushSize: 4, MaxAge: time.Hour, CheckpointPages: 4}
	cfg.Log = storage.NewPageStore()
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestStream(t, p, stream, 7)
	p.Flush()
	st := p.Stats()
	if st.WALCheckpoints == 0 {
		t.Fatal("no checkpoint despite crossing the threshold many times")
	}
	// The log never carries more than the previous checkpoint, one
	// interval of batches, the newest checkpoint, and one more interval
	// (plus the page-granular records straddling the boundaries).
	if limit := 4*cfg.CheckpointPages + 8; st.WALPages > limit {
		t.Fatalf("log grew to %d pages; want compaction to keep it under %d", st.WALPages, limit)
	}
	want := fingerprint(p)
	p2, _ := reopenFromImage(t, cfg.Log, Config{CheckpointPages: 4})
	defer p2.Close()
	if got := fingerprint(p2); got != want {
		t.Fatalf("restart from compacted log diverged:\n got %s\nwant %s", got, want)
	}
	p.Close()
}

// TestCheckpointOncePerCrossing: one crossing of CheckpointPages writes
// one checkpoint. The admission that crosses writes it before releasing
// p.mu, so the next batch finds the crossing consumed and must not
// re-encode the whole history for one new page.
func TestCheckpointOncePerCrossing(t *testing.T) {
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; p.Stats().WALCheckpoints == 0; i++ {
		if _, err := p.Ingest([]Observation{{ObjectID: "c", T: float64(i), X: float64(i), Y: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Ingest([]Observation{{ObjectID: "c", T: 1e6, X: 0, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().WALCheckpoints; n != 1 {
		t.Fatalf("one crossing wrote %d checkpoints, want 1", n)
	}
}

// TestConcurrentIngestCheckpointsOncePerCrossing is the same contract
// under contention (run it with -race): eight ingesters cross the
// threshold together over and over, and the checkpoint count stays
// within the batch pages logged divided by CheckpointPages.
func TestConcurrentIngestCheckpointsOncePerCrossing(t *testing.T) {
	const ingesters, batches, every = 8, 40, 4
	m := obs.New(0)
	p, err := Open(Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: every, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if _, err := p.Ingest([]Observation{{ObjectID: id, T: float64(i), X: float64(i), Y: 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("g%d", g))
	}
	wg.Wait()
	pages := m.Ingest.WALPages.Load()
	if n := p.Stats().WALCheckpoints; n == 0 || n > pages/every {
		t.Fatalf("%d batch pages wrote %d checkpoints, want 1..%d", pages, n, pages/every)
	}
}

// TestCheckpointStateRoundTrip pins the state codec on its own: encode
// the live store, rebuild from the payload, compare fingerprints and
// re-encode to the same bytes.
func TestCheckpointStateRoundTrip(t *testing.T) {
	g := workload.New(3)
	stream := toObservations(g.ObservationStream("s", 5, 40, 0, 1, 4))
	p, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingestStream(t, p, stream, 9)
	p.Flush()
	state := encodeState(p.store)
	h, err := storage.DecodeHistory(state)
	if err != nil {
		t.Fatalf("freshly encoded state rejected: %v", err)
	}
	st, err := newStore(&h, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeState(st), state) {
		t.Fatal("rebuilt store encodes differently")
	}
	rebuilt := &Pipeline{store: st}
	ep, _ := st.publish(nil)
	rebuilt.epoch.Store(ep)
	if got, want := fingerprint(rebuilt), fingerprint(p); got != want {
		t.Fatalf("state round trip diverged:\n got %s\nwant %s", got, want)
	}
	// The decoded tracks share one units array and one starts array:
	// growing each object in slot order must leave every other column
	// intact.
	for _, id := range slotOrder(st) {
		last, _ := p.Epoch().Current(id)
		st.Apply([]Observation{{ObjectID: id, T: float64(last.T) + 1, X: last.P.X + 1, Y: last.P.Y}})
		requireStartsColumns(t, st)
	}
}

// TestCheckpointBytesPinned pins the checkpoint payload of a
// fleet-shaped store (fleetStore: 570 objects, 150 steps) by its length
// and FNV-64a digest. The payload is the §4 history layout the recovery
// scan decodes, so a change that moves either changes the bytes every
// checkpoint writes, and must say why.
func TestCheckpointBytesPinned(t *testing.T) {
	payload := encodeState(fleetStore(t))
	h := fnv.New64a()
	h.Write(payload)
	if n, sum := len(payload), fmt.Sprintf("%016x", h.Sum64()); n != 2884246 || sum != "54a337f94bc2743c" {
		t.Errorf("checkpoint payload is %d bytes, FNV-64a %s; pinned 2884246 bytes, 54a337f94bc2743c", n, sum)
	}
}

// TestCorruptCheckpointFallsBack rots the newest checkpoint record in
// the durable image. Recovery must quarantine it and reconstruct the
// identical state from the previous checkpoint plus suffix replay —
// never failing open, never losing an acked batch.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	g := workload.New(17)
	stream := toObservations(g.ObservationStream("f", 6, 60, 0, 1, 4))
	cfg := Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: -1}
	cfg.Log = storage.NewPageStore()
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	third := len(stream) / 3
	ingestStream(t, p, stream[:third], 7)
	forceCheckpoint(p) // ckpt1
	ingestStream(t, p, stream[third:2*third], 7)
	forceCheckpoint(p) // ckpt2: log is now [ckpt1][batches][ckpt2]
	ingestStream(t, p, stream[2*third:], 7)
	p.Flush()
	want := fingerprint(p)
	ckptPage := p.wal.ckptPage
	if ckptPage <= 0 {
		t.Fatalf("test premise broken: newest checkpoint at page %d, want a retained predecessor before it", ckptPage)
	}

	var img bytes.Buffer
	if _, err := cfg.Log.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	raw := img.Bytes()
	// Flip a payload byte inside the newest checkpoint record. The image
	// prefixes pages with a 12-byte header (see TestWALCorruptPayload).
	raw[12+ckptPage*storage.PageSize+walHeaderSize+3] ^= 0xFF
	damaged, err := storage.ReadPageStore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Open(Config{Log: damaged, CheckpointPages: -1})
	if err != nil {
		t.Fatalf("recovery failed open on a corrupt checkpoint: %v", err)
	}
	defer p2.Close()
	if got := fingerprint(p2); got != want {
		t.Fatalf("fallback recovery diverged:\n got %s\nwant %s", got, want)
	}
	if st := p2.Stats(); st.WALQuarantined == 0 {
		t.Fatal("corrupt checkpoint was not quarantined")
	}
}

// TestDirtyRecoveryRecheckpoints: when recovery quarantined damage and
// checkpointing is enabled, Open writes a fresh checkpoint immediately
// so the next open no longer re-reads the damaged region.
func TestDirtyRecoveryRecheckpoints(t *testing.T) {
	g := workload.New(23)
	stream := toObservations(g.ObservationStream("d", 4, 40, 0, 1, 4))
	cfg := Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: -1}
	cfg.Log = storage.NewPageStore()
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	ingestStream(t, p, stream[:half], 7)
	forceCheckpoint(p)
	ingestStream(t, p, stream[half:], 7)
	p.Flush()
	want := fingerprint(p)
	ckptPage := p.wal.ckptPage

	var img bytes.Buffer
	if _, err := cfg.Log.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	raw := img.Bytes()
	raw[12+ckptPage*storage.PageSize+walHeaderSize+1] ^= 0xFF
	damaged, err := storage.ReadPageStore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Open with checkpointing on: the dirty scan triggers an immediate
	// re-checkpoint, compacting the quarantined hole away.
	p2, err := Open(Config{Log: damaged, CheckpointPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(p2); got != want {
		t.Fatalf("dirty recovery diverged:\n got %s\nwant %s", got, want)
	}
	if st := p2.Stats(); st.WALCheckpoints == 0 {
		t.Fatal("dirty recovery did not re-checkpoint")
	}
	p2.Close()
	// A third open of the re-checkpointed medium is clean: no further
	// quarantine, same state.
	p3, _ := reopenFromImage(t, damaged, Config{CheckpointPages: 4})
	defer p3.Close()
	if st := p3.Stats(); st.WALQuarantined != 0 {
		t.Fatalf("re-checkpointed log still carries damage: %d quarantined pages", st.WALQuarantined)
	}
	if got := fingerprint(p3); got != want {
		t.Fatalf("third open diverged:\n got %s\nwant %s", got, want)
	}
}

// TestV1CheckpointQuarantined: the checkpoint layout before storage's
// (version 1) has no migration. A version 1 record with a valid CRC
// reads as a corrupt checkpoint — quarantined, never fatal — and the
// batches around it replay to the same state.
func TestV1CheckpointQuarantined(t *testing.T) {
	stream := toObservations(workload.New(29).ObservationStream("v", 4, 30, 0, 1, 4))
	cfg := Config{FlushSize: 1 << 20, MaxAge: time.Hour, CheckpointPages: -1, Log: storage.NewPageStore()}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	half := len(stream) / 2
	ingestStream(t, p, stream[:half], 7)
	p.Flush()
	v1 := append(binary.LittleEndian.AppendUint32(nil, 1), make([]byte, 4+24)...) // no objects, zero counters
	if err := p.wal.checkpoint(v1, false); err != nil {
		t.Fatal(err)
	}
	ingestStream(t, p, stream[half:], 7)
	p.Flush()
	p2, _ := reopenFromImage(t, cfg.Log, Config{CheckpointPages: -1})
	defer p2.Close()
	if st := p2.Stats(); st.WALQuarantined == 0 {
		t.Fatal("version 1 checkpoint was not quarantined")
	}
	if got, want := fingerprint(p2), fingerprint(p); got != want {
		t.Fatalf("recovery around a version 1 checkpoint diverged:\n got %s\nwant %s", got, want)
	}
}
