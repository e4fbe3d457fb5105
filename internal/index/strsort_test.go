package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"movingdb/internal/geom"
)

// refStrSort is the exact STR order the packed-key sort replaced, kept
// as the reference the coarse tiling is held to: the same three passes,
// each a comparison sort on (centre, input position) with the centre at
// full float64 precision. Non-finite centres are outside its contract
// (NaN compares equal to everything), so it only sees finite input.
func refStrSort(entries []Entry) {
	type sortKey struct {
		c float64
		i int
	}
	sortKeys := func(keys []sortKey) {
		slices.SortFunc(keys, func(a, b sortKey) int {
			switch {
			case a.c < b.c:
				return -1
			case a.c > b.c:
				return 1
			}
			return a.i - b.i
		})
	}
	n := len(entries)
	leaves := (n + fanout - 1) / fanout
	sx := int(math.Ceil(math.Cbrt(float64(leaves))))
	slabX, slabY := sx*sx*fanout, sx*fanout
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i] = sortKey{entries[i].Cube.Rect.MinX + entries[i].Cube.Rect.MaxX, i}
	}
	sortKeys(keys)
	for lo := 0; lo < n; lo += slabX {
		slab := keys[lo:min(lo+slabX, n)]
		for k := range slab {
			r := entries[slab[k].i].Cube.Rect
			slab[k].c = r.MinY + r.MaxY
		}
		sortKeys(slab)
		for l2 := 0; l2 < len(slab); l2 += slabY {
			run := slab[l2:min(l2+slabY, len(slab))]
			for k := range run {
				c := entries[run[k].i].Cube
				run[k].c = c.MinT + c.MaxT
			}
			sortKeys(run)
		}
	}
	sorted := make([]Entry, n)
	for j, k := range keys {
		sorted[j] = entries[k.i]
	}
	copy(entries, sorted)
}

// translate moves every cube by d along all three axes.
func translate(entries []Entry, d float64) []Entry {
	out := slices.Clone(entries)
	for i := range out {
		c := &out[i].Cube
		c.Rect.MinX, c.Rect.MaxX, c.Rect.MinY, c.Rect.MaxY = c.Rect.MinX+d, c.Rect.MaxX+d, c.Rect.MinY+d, c.Rect.MaxY+d
		c.MinT, c.MaxT = c.MinT+d, c.MaxT+d
	}
	return out
}

// battery is a fixed set of windows over the extent of entries: small
// and large rectangles, instants and periods.
func battery(entries []Entry) []geom.Cube {
	ext := geom.EmptyCube()
	for _, e := range entries {
		ext = ext.Union(e.Cube)
	}
	if ext.IsEmpty() {
		ext = geom.Cube{Rect: geom.Rect{MaxX: 1, MaxY: 1}, MaxT: 1}
	}
	w, h, d := ext.Rect.MaxX-ext.Rect.MinX, ext.Rect.MaxY-ext.Rect.MinY, ext.MaxT-ext.MinT
	rng := rand.New(rand.NewSource(99))
	out := make([]geom.Cube, 0, 120)
	for i := 0; i < 120; i++ {
		side, span := []float64{0.02, 0.1, 0.4}[i%3], []float64{0, 0.05, 0.5}[i/3%3]
		x, y, t := ext.Rect.MinX+rng.Float64()*w, ext.Rect.MinY+rng.Float64()*h, ext.MinT+rng.Float64()*d
		out = append(out, geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + side*w, MaxY: y + side*h}, MinT: t, MaxT: t + span*d})
	}
	return out
}

// checkTiling builds entries with the packed sort and with the
// reference, requires every window's answer to equal the scan's, and
// returns the nodes the battery visited in each tree.
func checkTiling(t *testing.T, name string, entries []Entry) (packed, ref int) {
	t.Helper()
	tr := Build(slices.Clone(entries))
	byRef := slices.Clone(entries)
	refStrSort(byRef)
	rt := pack(byRef)
	if tr.Len() != len(entries) {
		t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(entries))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for qi, q := range battery(entries) {
		got, v := tr.Search(q, nil)
		_, rv := rt.Search(q, nil)
		packed, ref = packed+v, ref+rv
		if want := scanWindow(entries, q); !slices.Equal(sorted(got), want) {
			t.Fatalf("%s window %d: search found %d, scan %d", name, qi, len(got), len(want))
		}
	}
	return packed, ref
}

// TestPackedTilingMatchesReference holds the 32-bit keys to the exact
// sort where the tiling's quality shows: nodes visited over the battery
// within 5 % of the reference tiling's, on bench-shaped fleet cubes and
// on the same cubes moved by 1e7 — where a key cut from the top bits of
// the float pattern, not placed inside the axis's range, would collapse
// whole slabs into one value.
func TestPackedTilingMatchesReference(t *testing.T) {
	fleet := fleetCubes(30000)
	for _, c := range []struct {
		name    string
		entries []Entry
	}{
		{"fleet", fleet},
		{"fleet+1e7", translate(fleet, 1e7)},
		{"random", randomCubes(rand.New(rand.NewSource(5)), 20000)},
	} {
		packed, ref := checkTiling(t, c.name, c.entries)
		t.Logf("%s: packed %d, reference %d nodes", c.name, packed, ref)
		if diff := math.Abs(float64(packed-ref)) / float64(ref); diff > 0.05 {
			t.Errorf("%s: battery visited %d nodes, reference tiling %d (%.1f %% apart, budget 5 %%)", c.name, packed, ref, 100*diff)
		}
	}
}

// TestPackedTilingSizesAndTies walks the sizes where the sort changes
// shape — one leaf and its neighbours, the radix cut-over, more entries
// than two bytes of position can tell apart — and inputs whose keys
// collide by construction: all centres equal, and two-valued centres
// (every unit of a tick shares one t-centre). Where no two distinct
// centres can share a key the packed order must be the reference's
// exactly.
func TestPackedTilingSizesAndTies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 15, 16, 17, radixMin - 1, radixMin, radixMin + 1, 2*radixMin + 3, 65536 + 4500} {
		packed, ref := checkTiling(t, fmt.Sprintf("n=%d", n), randomCubes(rng, n))
		if n > 4096 && math.Abs(float64(packed-ref)) > 0.05*float64(ref) {
			t.Errorf("n=%d: battery visited %d nodes, reference tiling %d", n, packed, ref)
		}
	}
	for _, n := range []int{17, radixMin + 40, 3000} {
		equal, twoValued := make([]Entry, n), make([]Entry, n)
		for i := range equal {
			equal[i] = Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: 3, MinY: 4, MaxX: 5, MaxY: 6}, MinT: 7, MaxT: 8}, ID: int64(i)}
			x, y := float64(rng.Intn(2))*40, float64(rng.Intn(2))*40
			twoValued[i] = Entry{Cube: geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 2, MaxY: y + 2}, MinT: 100, MaxT: 101}, ID: int64(i)}
		}
		for name, entries := range map[string][]Entry{"all-equal": equal, "two-valued": twoValued} {
			checkTiling(t, fmt.Sprintf("%s n=%d", name, n), entries)
			got, want := slices.Clone(entries), slices.Clone(entries)
			strSort(got)
			refStrSort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s n=%d: packed order differs from the exact (centre, position) order", name, n)
			}
		}
	}
}

// TestBuildNonFiniteCentres: the order is total on centres the old
// comparator was not a strict weak order for. Unbounded cubes give
// ±Inf and NaN (+Inf + -Inf) centres, a cube at ±MaxFloat64 overflows
// to one, and -0 must key as 0: two builds of the same input tile it
// identically, the tree validates, and Search equals the scan. Cubes
// with a NaN coordinate are held to determinism only — min and max
// carry the NaN into every ancestor's cube, which no sort can mend.
func TestBuildNonFiniteCentres(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(7))
	entries := randomCubes(rng, 700)
	odd := []geom.Cube{
		geom.EmptyCube(),
		{Rect: geom.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}, MinT: -inf, MaxT: inf},
		{Rect: geom.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}, MinT: 50, MaxT: inf},
		{Rect: geom.Rect{MinX: -inf, MinY: 30, MaxX: 40, MaxY: 40}, MinT: -inf, MaxT: 5},
		{Rect: geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}, MinT: 20, MaxT: 21},
		{Rect: geom.Rect{MinX: math.MaxFloat64, MinY: 1, MaxX: math.MaxFloat64, MaxY: 2}, MinT: 1, MaxT: 2},
		{Rect: geom.Rect{MinX: negZero, MinY: negZero, MaxX: negZero, MaxY: 0}, MinT: negZero, MaxT: negZero},
		{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}, MinT: 0, MaxT: 0},
	}
	for i := 0; i < 40; i++ {
		at := rng.Intn(len(entries))
		entries = slices.Insert(entries, at, Entry{Cube: odd[i%len(odd)]})
	}
	for i := range entries {
		entries[i].ID = int64(i)
	}
	a, b := slices.Clone(entries), slices.Clone(entries)
	ta, tb := Build(a), Build(b)
	if !slices.Equal(a, b) {
		t.Fatal("two builds of one input tiled it differently")
	}
	if err := ta.Validate(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range append(battery(entries[:0]), append(battery(randomCubes(rng, 50)),
		geom.Cube{Rect: geom.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, MinT: -1, MaxT: 1},
		geom.Cube{Rect: geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}, MinT: -inf, MaxT: inf})...) {
		got, _ := ta.Search(q, nil)
		other, _ := tb.Search(q, nil)
		if want := scanWindow(entries, q); !slices.Equal(sorted(got), want) || !slices.Equal(sorted(other), want) {
			t.Fatalf("window %d: search found %d, scan %d", qi, len(got), len(want))
		}
	}

	nan := math.NaN()
	for i := 0; i < 10; i++ {
		entries[rng.Intn(len(entries))].Cube.Rect.MinX = nan
		entries[rng.Intn(len(entries))].Cube.MaxT = nan
	}
	// NaN != NaN, so compare the orders by id.
	ids := func(es []Entry) []int64 {
		out := make([]int64, len(es))
		for i, e := range es {
			out[i] = e.ID
		}
		return out
	}
	a, b = slices.Clone(entries), slices.Clone(entries)
	Build(a)
	Build(b)
	if !slices.Equal(ids(a), ids(b)) {
		t.Fatal("two builds of one input with NaN coordinates tiled it differently")
	}
	sorted := ids(a)
	slices.Sort(sorted)
	if !slices.Equal(sorted, ids(entries)) {
		t.Fatal("a build with NaN coordinates lost or duplicated entries")
	}
}

// TestSortPacked holds the radix sort to slices.Sort on the key shapes
// the passes produce: full-width keys, keys that agree on most digits,
// all-equal high halves, and lengths on both sides of the cut-over.
func TestSortPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000, 70000} {
		for shape, gen := range map[string]func(i int) uint64{
			"wide":      func(i int) uint64 { return rng.Uint64() },
			"packed":    func(i int) uint64 { return uint64(rng.Uint32())<<32 | uint64(i) },
			"one-digit": func(i int) uint64 { return uint64(rng.Intn(3))<<40 | uint64(i) },
			"tied":      func(i int) uint64 { return 7<<32 | uint64(n-i) },
		} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			sortPacked(keys, make([]uint64, n))
			if !slices.Equal(keys, want) {
				t.Fatalf("%s n=%d: not sorted as slices.Sort sorts it", shape, n)
			}
		}
	}
}
