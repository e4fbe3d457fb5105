package ingest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

func TestWALRoundTrip(t *testing.T) {
	ps := storage.NewPageStore()
	w, rec, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil || len(rec.batches) != 0 {
		t.Fatalf("fresh wal: %v, %d batches", err, len(rec.batches))
	}
	want := [][]Observation{
		{{ObjectID: "a", T: 1, X: 2, Y: 3}},
		{{ObjectID: "a", T: 2, X: 3, Y: 3}, {ObjectID: "bb", T: 1, X: -1, Y: 0.5}},
		{{ObjectID: "long-object-identifier-0123456789", T: 3.5, X: 1e9, Y: -1e-9}},
	}
	for i, b := range want {
		seq, err := w.append(b)
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d: seq=%d err=%v", i, seq, err)
		}
	}
	_, rec2, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rec2.batches) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", rec2.batches, want)
	}
}

// TestWALTornTailTruncated simulates a crash mid-write: the last record
// spans two pages and loses its second page. Replay must keep every
// earlier record, discard the torn one, and leave the log appendable —
// with the new record reachable by the next scan.
func TestWALTornTailTruncated(t *testing.T) {
	ps := storage.NewPageStore()
	w, _, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	small := []Observation{{ObjectID: "a", T: 1, X: 0, Y: 0}}
	if _, err := w.append(small); err != nil {
		t.Fatal(err)
	}
	// ~300 observations ≈ 10 KiB payload: a multi-page record.
	big := make([]Observation, 300)
	for i := range big {
		big[i] = Observation{ObjectID: "bulk", T: float64(i), X: 1, Y: 2}
	}
	if _, err := w.append(big); err != nil {
		t.Fatal(err)
	}
	if ps.NumPages() < 3 {
		t.Fatalf("want a multi-page second record, have %d pages total", ps.NumPages())
	}
	ps.Truncate(2) // tear the big record

	w2, rec2, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.batches; len(got) != 1 || fmt.Sprint(got[0]) != fmt.Sprint(small) {
		t.Fatalf("after tear: %v", got)
	}
	if ps.NumPages() != 1 {
		t.Fatalf("torn pages not truncated: %d pages", ps.NumPages())
	}
	// The log keeps working after recovery.
	if seq, err := w2.append(small); err != nil || seq != 2 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
	_, r, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatalf("reopen after recovery: %v", err)
	}
	if len(r.batches) != 2 {
		t.Fatalf("post-recovery append not replayed: %d batches", len(r.batches))
	}
}

// TestWALCorruptPayload flips a payload byte in the serialised image;
// the CRC must stop replay at the damaged record.
func TestWALCorruptPayload(t *testing.T) {
	ps := storage.NewPageStore()
	w, _, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.append([]Observation{{ObjectID: "a", T: float64(i), X: 0, Y: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if _, err := ps.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	raw := img.Bytes()
	// Page 1 holds record 2; flip a byte past its header.
	off := 12 + storage.PageSize + walHeaderSize + 2
	raw[off] ^= 0xFF
	damaged, err := storage.ReadPageStore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, rec2, err := openWAL(pageStoreIO{damaged}, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.batches) != 1 {
		t.Fatalf("want replay to stop at the damaged record: got %d batches", len(rec2.batches))
	}
	if damaged.NumPages() != 1 {
		t.Fatalf("damaged tail not truncated: %d pages", damaged.NumPages())
	}
}

// TestWALGarbageStore starts from a store holding non-WAL bytes: replay
// finds nothing, truncates, and the log becomes usable.
func TestWALGarbageStore(t *testing.T) {
	ps := storage.NewPageStore()
	ps.Put(bytes.Repeat([]byte{0xAB}, 3*storage.PageSize))
	w, rec, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil || len(rec.batches) != 0 {
		t.Fatalf("garbage store: %v, %d batches", err, len(rec.batches))
	}
	if ps.NumPages() != 0 {
		t.Fatalf("garbage not truncated: %d pages", ps.NumPages())
	}
	if _, err := w.append([]Observation{{ObjectID: "a", T: 1, X: 0, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	_, r, err := openWAL(pageStoreIO{ps}, obs.New(0))
	if err != nil {
		t.Fatalf("reopen after garbage recovery: %v", err)
	}
	if len(r.batches) != 1 {
		t.Fatalf("append after garbage recovery not replayed: %d batches", len(r.batches))
	}
}

// TestCrashRecovery is the acceptance scenario: batches are
// acknowledged (in the WAL) but the process dies before any flush
// applies them. The WAL medium's bytes at ack time — captured with
// WriteTo, the durable image — are all the restarted pipeline gets, and
// replay must restore every acknowledged unit so atinstant answers
// match a pipeline that never crashed.
func TestCrashRecovery(t *testing.T) {
	g := workload.New(5)
	stream := toObservations(g.ObservationStream("c", 6, 30, 0, 1, 4))

	log := storage.NewPageStore()
	p, err := Open(Config{Log: log, FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); lo += 23 {
		if _, err := p.Ingest(stream[lo:min(lo+23, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Applied != 0 {
		t.Fatalf("test premise broken: %d observations already applied", s.Applied)
	}
	// Durable image at ack time; the crashed process never flushes.
	var disk bytes.Buffer
	if _, err := log.WriteTo(&disk); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop p without Close, restart from the image.
	recovered, err := storage.ReadPageStore(bytes.NewReader(disk.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Open(Config{Log: recovered})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	// Reference: the same stream applied without a crash.
	perObject := map[string][]moving.Sample{}
	for _, o := range stream {
		perObject[o.ObjectID] = append(perObject[o.ObjectID], moving.Sample{T: temporal.Instant(o.T), P: geom.Pt(o.X, o.Y)})
	}
	for id, samples := range perObject {
		want, err := moving.MPointFromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := p2.Epoch().Snapshot(id)
		if !ok {
			t.Fatalf("acknowledged object %s lost in the crash", id)
		}
		gu, wu := got.M.Units(), want.M.Units()
		if len(gu) != len(wu) {
			t.Fatalf("%s: %d recovered units, want %d", id, len(gu), len(wu))
		}
		for i := range gu {
			if gu[i] != wu[i] {
				t.Fatalf("%s unit %d: recovered %v, want %v", id, i, gu[i], wu[i])
			}
		}
		// Spot-check atinstant at unit boundaries and midpoints.
		for _, u := range wu {
			mid := (u.Iv.Start + u.Iv.End) / 2
			if got.AtInstant(mid).P != want.AtInstant(mid).P {
				t.Fatalf("%s: atinstant(%v) diverges after recovery", id, mid)
			}
		}
	}
	// The restarted pipeline accepts new writes and its WAL continues
	// the sequence.
	preSeq := p2.Stats().WALSeq
	if _, err := p2.Ingest([]Observation{{ObjectID: "c0", T: 1e6, X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	if s := p2.Stats(); s.WALSeq != preSeq+1 {
		t.Fatalf("sequence did not continue: %d -> %d", preSeq, s.WALSeq)
	}
}
