package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// sampleHistory is a valid table with every track shape the appender
// leaves behind: moving then resting, one sample and no unit yet, an
// empty seed never seen, and a single degenerate unit.
func sampleHistory() History {
	return History{
		Tracks: []Track{
			{ID: "a", Seen: true, Last: moving.Sample{T: 20, P: geom.Pt(10, 0)}, Units: []units.UPoint{
				units.NewUPoint(rho(0, 10), units.MPoint{X1: 1}),
				units.NewUPoint(iv(10, 20), units.MPoint{X0: 10}),
			}},
			{ID: "solo", Seen: true, Last: moving.Sample{T: 3, P: geom.Pt(1, 2)}},
			{ID: "never"},
			{ID: "b", Seen: true, Last: moving.Sample{T: 5, P: geom.Pt(2, 3)}, Units: []units.UPoint{
				units.NewUPoint(iv(5, 5), units.MPoint{X0: 2, Y0: 3}),
			}},
		},
		Applied: 7, Dropped: 1, Compacted: 2,
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	for _, h := range []History{{}, sampleHistory()} {
		buf := EncodeHistory(h)
		got, err := DecodeHistory(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tracks) != len(h.Tracks) || got.Applied != h.Applied || got.Dropped != h.Dropped || got.Compacted != h.Compacted {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
		for i, tr := range got.Tracks {
			want := h.Tracks[i]
			if tr.ID != want.ID || tr.Seen != want.Seen || tr.Last != want.Last || !slices.Equal(tr.Units, want.Units) {
				t.Fatalf("track %d: got %+v, want %+v", i, tr, want)
			}
			// The tracks share one decoded array; each is capped at its
			// own end, so the appender growing one cannot write into the
			// next. The starts columns share a second one the same way.
			if cap(tr.Units) != len(tr.Units) || cap(tr.Starts) != len(tr.Starts) {
				t.Fatalf("track %q: cap %d/%d past its %d units/%d starts", tr.ID, cap(tr.Units), cap(tr.Starts), len(tr.Units), len(tr.Starts))
			}
		}
		requireStarts(t, got)
		// Grow every track in turn, as the appender does: no track's units
		// or starts may change under another's append.
		for i := range got.Tracks {
			tr := &got.Tracks[i]
			tr.Units, tr.Starts = append(tr.Units, units.UPoint{}), append(tr.Starts, -1)
			requireStarts(t, History{Tracks: got.Tracks[i+1:]})
			tr.Units, tr.Starts = tr.Units[:len(tr.Units)-1], tr.Starts[:len(tr.Starts)-1]
		}
		if !bytes.Equal(EncodeHistory(got), buf) {
			t.Fatal("decoded history re-encodes differently")
		}
	}
}

// requireStarts requires every track's Starts column to be its units'
// interval starts.
func requireStarts(t *testing.T, h History) {
	t.Helper()
	for _, tr := range h.Tracks {
		want := make([]temporal.Instant, len(tr.Units))
		for i, u := range tr.Units {
			want[i] = u.Iv.Start
		}
		if !slices.Equal(tr.Starts, want) {
			t.Fatalf("track %q: starts %v, its units start at %v", tr.ID, tr.Starts, want)
		}
	}
}

// TestDecodeHistoryRejects holds the checkpoint decoder to every rule:
// one payload per rule the version 1 checkpoint decoder in
// internal/ingest enforced, then the rules version 2 added. Each case
// breaks one rule of sampleHistory, before or after encoding.
func TestDecodeHistoryRejects(t *testing.T) {
	v1 := append(binary.LittleEndian.AppendUint32(nil, 1), make([]byte, 4+24)...) // no objects, zero counters
	put32 := func(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
	for _, c := range []struct {
		name   string
		track  func(h *History)
		layout func(e *Encoded)
		raw    []byte
	}{
		{name: "short header", raw: []byte{2, 0, 0}},
		{name: "version 1 payload", raw: v1},
		{name: "unknown version", layout: func(e *Encoded) { put32(e.Root, 3) }},
		{name: "object count exceeds payload", layout: func(e *Encoded) { put32(e.Root[4:], 0xFFFFFFF0) }},
		{name: "truncated object", layout: func(e *Encoded) { e.Arrays[1] = e.Arrays[1][:len(e.Arrays[1])-1] }},
		{name: "empty id", track: func(h *History) { h.Tracks[1].ID = "" }},
		{name: "duplicate id", track: func(h *History) { h.Tracks[3].ID = "a" }},
		{name: "bad seen flag", layout: func(e *Encoded) { e.Arrays[1][16] = 2 }},
		{name: "non-finite sample", track: func(h *History) { h.Tracks[1].Last.P.X = math.NaN() }},
		{name: "unit count exceeds payload", layout: func(e *Encoded) { put32(e.Root[8:], 0xFFFFFFF0) }},
		{name: "bad closure flag", layout: func(e *Encoded) { e.Arrays[0][17] = 2 }},
		{name: "non-finite motion", track: func(h *History) { h.Tracks[0].Units[1].M.X1 = math.Inf(1) }},
		{name: "interval start after end", track: func(h *History) { h.Tracks[0].Units[0].Iv.Start = 11 }},
		{name: "degenerate interval not closed", track: func(h *History) { h.Tracks[3].Units[0].Iv.RC = false }},
		{name: "units out of order", track: func(h *History) { us := h.Tracks[0].Units; us[0], us[1] = us[1], us[0] }},
		{name: "trailing bytes", raw: append(EncodeHistory(sampleHistory()), 0)},
		{name: "negative counter", track: func(h *History) { h.Dropped = -1 }},
		// Version 2: an impossible store is as corrupt as a torn one.
		{name: "units but never seen", track: func(h *History) { h.Tracks[0].Seen = false }},
		{name: "last sample off the final unit's end", track: func(h *History) { h.Tracks[0].Last.T = 5 }},
		{name: "adjacent units with equal motion", track: func(h *History) { h.Tracks[0].Units[1].M = h.Tracks[0].Units[0].M }},
		{name: "unit range leaves a gap", layout: func(e *Encoded) {
			put32(e.Arrays[1][trackSize+8:], 3)
			put32(e.Arrays[1][trackSize+12:], 3)
		}},
		{name: "id range overlaps", layout: func(e *Encoded) { put32(e.Arrays[1][trackSize:], 0) }},
		{name: "missing array", layout: func(e *Encoded) { e.Arrays = e.Arrays[:2] }},
	} {
		h := sampleHistory()
		if c.track != nil {
			c.track(&h)
		}
		payload := EncodeHistory(h)
		if c.layout != nil {
			e, err := Unflatten(payload)
			if err != nil {
				t.Fatal(err)
			}
			c.layout(&e)
			payload = e.Flatten()
		}
		if c.raw != nil {
			payload = c.raw
		}
		if _, err := DecodeHistory(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: accepted (err %v)", c.name, err)
		}
	}
	if _, err := DecodeHistory(EncodeHistory(sampleHistory())); err != nil {
		t.Fatalf("the unbroken history is rejected, so no case above proves anything: %v", err)
	}
}
