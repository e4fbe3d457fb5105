package ingest

import (
	"movingdb/internal/moving"
	"movingdb/internal/storage"
	"movingdb/internal/units"
)

// A checkpoint's payload is the appender state at one WAL sequence
// number in storage's §4 layout (storage.EncodeHistory): one units array
// shared by every object. storage.DecodeHistory is its one validator; a
// checkpoint that describes an impossible store is as corrupt as one
// that fails its CRC, and recovery falls back the same way.

// encodeState snapshots the store into a checkpoint payload. The caller
// (checkpointLocked) holds Pipeline.mu, so neither the store nor the WAL
// sequence it pairs the payload with can move meanwhile.
func encodeState(s *Store) []byte {
	h := storage.History{Tracks: make([]storage.Track, len(s.objs)), Applied: s.applied, Dropped: s.dropped, Compacted: s.compacted}
	for i, o := range s.objs {
		h.Tracks[i] = *o
	}
	return storage.EncodeHistory(h)
}

// seedHistory turns seed mappings into the store's opening state: each
// object owns a copy of its units, with their starts column, and resumes
// from the end of the last.
func seedHistory(ids []string, seeds []moving.MPoint) *storage.History {
	h := &storage.History{Tracks: make([]storage.Track, len(ids))}
	for i, id := range ids {
		t := &h.Tracks[i]
		t.ID, t.Units = id, append([]units.UPoint(nil), seeds[i].M.Units()...)
		if n := len(t.Units); n > 0 {
			t.Last, t.Seen = moving.Sample{T: t.Units[n-1].Iv.End, P: t.Units[n-1].EndPoint()}, true
		}
	}
	h.FillStarts()
	return h
}
