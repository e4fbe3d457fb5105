package ingest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// FuzzWALDecode throws arbitrary bytes at every decoder on the WAL
// recovery path. The contract under test: decoders only return errors —
// no panic, no runaway allocation — and anything they do accept
// round-trips. The full openWAL scan runs over the bytes as a log
// image, where the never-fail-open rule means the only acceptable
// outcome is a successful (possibly empty) recovery.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBatch([]Observation{{ObjectID: "a", T: 1, X: 2, Y: 3}}))
	f.Add(encodeBatch([]Observation{{ObjectID: "xyz", T: -1, X: 0.5, Y: 1e300}, {T: 2}}))
	// A huge claimed count over a tiny payload: the allocation bomb the
	// count bound exists for.
	bomb := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	f.Add(bomb)
	f.Add(encodeRecord(walKindBatch, 1, encodeBatch([]Observation{{ObjectID: "r", T: 9, X: 8, Y: 7}})))
	f.Add(encodeRecord(walKindCheckpoint, 0, storage.EncodeHistory(storage.History{})))
	s, err := newStore(&storage.History{}, obs.New(0))
	if err != nil {
		f.Fatal(err)
	}
	s.Apply([]Observation{{ObjectID: "c", T: 0}, {ObjectID: "c", T: 1, X: 1}, {ObjectID: "c", T: 2, X: 1, Y: 1}, {ObjectID: "d", T: 5}})
	f.Add(encodeState(s))
	f.Add(encodeRecord(walKindCheckpoint, 0, encodeState(s)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if batch, err := decodeBatch(data); err == nil {
			if !bytes.Equal(encodeBatch(batch), data[:len(encodeBatch(batch))]) {
				t.Fatalf("accepted batch does not round-trip")
			}
		}
		if h, err := storage.DecodeHistory(data); err == nil && !bytes.Equal(storage.EncodeHistory(h), data) {
			t.Fatalf("accepted checkpoint state does not round-trip")
		}
		ps := storage.NewPageStore()
		if len(data) > 0 {
			ps.Put(data)
		}
		w, rec, err := openWAL(pageStoreIO{ps}, obs.New(0))
		if err != nil {
			t.Fatalf("openWAL failed open on arbitrary bytes: %v", err)
		}
		// Whatever was salvaged is a working log: appends keep working
		// and replay after a re-scan sees one more batch.
		n := len(rec.batches)
		if _, err := w.append([]Observation{{ObjectID: "post", T: 1, X: 0, Y: 0}}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if _, rec2, err := openWAL(pageStoreIO{ps}, obs.New(0)); err != nil || len(rec2.batches) < 1 {
			t.Fatalf("re-scan after post-recovery append: err=%v batches=%d (was %d)", err, len(rec2.batches), n)
		}
	})
}

// TestDecodeBatchCountBomb is the regression pin for the fuzz target's
// headline bug class: a 4-byte payload claiming 2^32-ish observations
// must be rejected before any allocation happens.
func TestDecodeBatchCountBomb(t *testing.T) {
	for _, count := range []uint32{0xFFFFFFFF, 0x7FFFFFFF, 1 << 20} {
		payload := binary.LittleEndian.AppendUint32(nil, count)
		if _, err := decodeBatch(payload); err == nil {
			t.Fatalf("count %#x over empty payload accepted", count)
		}
	}
	// Same bomb inside a checkpoint state: the framing's array count,
	// then the root's object and unit counts over empty arrays.
	if _, err := storage.DecodeHistory([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("array-count bomb accepted")
	}
	e, err := storage.Unflatten(storage.EncodeHistory(storage.History{}))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(e.Root[4:], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(e.Root[8:], 0xFFFFFFF0)
	if _, err := storage.DecodeHistory(e.Flatten()); err == nil {
		t.Fatal("object- and unit-count bomb accepted")
	}
}
