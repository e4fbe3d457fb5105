package temporal

import (
	"math/rand"
	"slices"
	"testing"
)

// decodeSeq turns fuzz bytes into a sequence Refine accepts: ordered and
// pairwise disjoint, with adjacent intervals allowed (as between the
// units of a mapping). Two bytes per interval: the gap to the previous
// end in half units plus the closure flags, then the length in half
// units (0 = the degenerate [t, t]).
func decodeSeq(raw []byte) []Interval {
	var out []Interval
	end, endRC := Instant(0), false
	for k := 0; k+1 < len(raw); k += 2 {
		gap, lc, rc := raw[k]&0x07, raw[k]&0x08 != 0, raw[k]&0x10 != 0
		length := raw[k+1] & 0x07
		start := end + Instant(gap)/2
		if length == 0 {
			lc, rc = true, true
		}
		if len(out) > 0 && gap == 0 && endRC && lc {
			// Both intervals would hold the shared instant.
			if length == 0 {
				start += 0.5
			} else {
				lc = false
			}
		}
		iv := Interval{Start: start, End: start + Instant(length)/2, LC: lc, RC: rc}
		out = append(out, iv)
		end, endRC = iv.End, rc
	}
	return out
}

// FuzzRefine holds Refine to the sort-based oracle it replaced, piece
// for piece, on every pair of valid interval sequences the fuzzer can
// spell.
func FuzzRefine(f *testing.F) {
	const lc, rc = 0x08, 0x10
	for _, s := range [][2][]byte{
		{{0, 0}, {0, 4}},                                               // degenerate [0,0] at the start of [0,2)
		{{2, 0, 2, 0}, {lc | rc, 6}},                                   // two instants inside one closed interval
		{{lc, 2, lc | rc, 2}, {lc | rc, 4}},                            // [0,1) followed by [1,2]
		{{lc, 2, rc, 2}, {lc | rc, 4}},                                 // [0,1) followed by (1,2]: instant 1 in neither
		{{lc, 4}, {4 | rc, 4}},                                         // [0,2) meets (2,4]
		{{lc | rc, 4}, {4 | lc | rc, 4}},                               // [0,2] meets [2,4]
		{{lc | rc, 4}, {4 | rc, 4}},                                    // [0,2] meets (2,4]
		{{lc | rc, 3, 1 | lc, 2}, nil},                                 // one side empty
		{nil, {lc | rc, 3}},                                            // the other side empty
		{nil, nil},                                                     // both empty
		{{lc, 2, lc, 2, lc | rc, 2}, {lc, 2, lc, 2, lc | rc, 2}},       // identical chained sequences
		{{lc | rc, 7, 3 | lc | rc, 7}, {1, 1, 1, 1, 1, 0, 1, 1, 1, 1}}, // many short pieces across two long ones
		{{lc, 1, lc, 1, lc, 1, lc, 1, lc, 1, lc, 1, lc, 1, lc, 1}, {7 | lc | rc, 2}}, // a late start: seven units of a before b starts
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(checkRefine)
}

func checkRefine(t *testing.T, ra, rb []byte) {
	a, b := decodeSeq(ra), decodeSeq(rb)
	for _, seq := range [][]Interval{a, b} {
		for k, iv := range seq {
			if err := iv.Validate(); err != nil {
				t.Fatalf("decoder produced %v: %v", iv, err)
			}
			if k > 0 && !seq[k-1].RDisjoint(iv) {
				t.Fatalf("decoder produced overlapping %v then %v", seq[k-1], iv)
			}
		}
	}
	got, want := Refine(a, b), refineSorted(a, b)
	if !slices.Equal(got, want) {
		t.Fatalf("Refine(%v, %v)\n got  %v\n want %v", a, b, got, want)
	}
	// Seek, from every start, finds b's first interval not wholly
	// before each interval of a.
	for _, iv := range a {
		for lo := 0; lo <= len(b); lo++ {
			want := lo
			for want < len(b) && b[want].RDisjoint(iv) {
				want++
			}
			if got := Seek(b, lo, iv, func(x Interval) Interval { return x }); got != want {
				t.Fatalf("Seek(%v, %d, %v) = %d, want %d", b, lo, iv, got, want)
			}
		}
	}
}

// TestRefineMatchesOracle runs the fuzz property over seeded random
// sequences, so every plain test run covers more than the seed corpus.
func TestRefineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 20000; n++ {
		ra, rb := make([]byte, 2*rng.Intn(9)), make([]byte, 2*rng.Intn(9))
		rng.Read(ra)
		rng.Read(rb)
		checkRefine(t, ra, rb)
	}
}
