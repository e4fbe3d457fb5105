package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"movingdb/internal/ingest"
)

// checkJSONFloat holds appendJSONFloat to json.Marshal for one finite
// float64, appended after a prefix so a writer that reads or clobbers
// b[:len(b)] shows up too.
func checkJSONFloat(t testing.TB, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	if got := appendJSONFloat([]byte("x:"), f); string(got[2:]) != string(want) || string(got[:2]) != "x:" {
		t.Fatalf("bits %#016x: appendJSONFloat = %q, encoding/json = %q", math.Float64bits(f), got, want)
	}
}

// jsonFloatEdges are the values where a shortest-digits writer goes
// wrong if it goes wrong anywhere: the ends of the range, every binade
// boundary (c = 2^52 has the asymmetric rounding interval), decimal
// powers, the limit of exact integers, and both sides of encoding/json's
// 'f'/'e' switch at 1e-6 and 1e21.
func jsonFloatEdges() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1),
		5e-324, 1e-323, math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52), math.MaxFloat64,
		1 << 53, 1<<53 - 1, 1<<53 + 1, 1<<53 + 2,
		1e-6, 1e21, 9.999999999999999e-7, 1e-7, 999999999999999900000, 1e22,
		75.5, 0.1, 0.3, 1.0 / 3, 2.0 / 3, 123456789.125, 4.35, 5e-7, 1e23, 8.41e21, 5.5e-7,
	}
	for e := -1074; e <= 1023; e++ {
		vs = append(vs, math.Ldexp(1, e))
	}
	for e := -30; e <= 30; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		vs = append(vs, p)
	}
	var out []float64
	for _, v := range vs {
		for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			if !isNonFinite(w) {
				out = append(out, w)
			}
		}
	}
	// The subnormals with few significant bits, where the shortest digits
	// are one or two and Java's two-digit minimum differs from Go.
	for c := uint64(1); c < 1<<14; c++ {
		out = append(out, math.Float64frombits(c))
	}
	for _, v := range out[:len(out):len(out)] {
		out = append(out, -v)
	}
	return out
}

// TestJSONFloatMatchesEncodingJSON is the writer's oracle: the edge
// table above and a short random sweep (the full one, ten million
// patterns, is TestJSONFloatRandomSweep, outside the race build).
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range jsonFloatEdges() {
		checkJSONFloat(t, f)
	}
	checkJSONFloatSweep(t, 200_000)
}

// checkJSONFloatSweep checks n seeded random values: mostly raw bit
// patterns (every exponent equally likely, so subnormals and huge
// values are as common as ordinary ones), and one in eight a decimal of
// one to seventeen digits or its neighbour, where several shortest
// candidates compete.
func checkJSONFloatSweep(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%8 == 0 {
			m := rng.Int63n(int64(math.Pow10(1 + rng.Intn(17))))
			f, _ = strconv.ParseFloat(strconv.FormatInt(m, 10)+"e"+strconv.Itoa(rng.Intn(640)-340), 64)
			if dir := rng.Intn(3); dir > 0 {
				f = math.Nextafter(f, math.Inf(3-2*dir))
			}
		}
		if !isNonFinite(f) {
			checkJSONFloat(t, f)
		}
	}
}

// TestJSONFloatTable checks the ranges the writer relies on for every
// binary exponent a finite float64 has: the table index is in range,
// and (4c + 2)·2^h, c < 2^53, fits the 63 bits rop multiplies.
func TestJSONFloatTable(t *testing.T) {
	for q := qMin; q <= 971; q++ {
		for _, k := range []int{flog10pow2(q), flog10threeQuartersPow2(q)} {
			if k < kMin || k > kMax {
				t.Fatalf("q=%d: k=%d outside [%d, %d]", q, k, kMin, kMax)
			}
			if h := q + flog2pow10(-k) + 2; h < 0 || h > 7 {
				t.Fatalf("q=%d k=%d: h=%d outside [0, 7]", q, k, h)
			}
		}
	}
}

// TestJSONFloatNonFinite: NaN and ±Inf never reach the table (exponent
// 0x7ff would index past it); a body holding one is the 500 that
// json.Marshal's UnsupportedValueError always was.
func TestJSONFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000)} {
		_ = appendJSONFloat(nil, f) // must not panic
		_, err := appendAtInstantBody(nil, 1, []ingest.Position{{ID: "a", X: f}})
		_, want := json.Marshal(f)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%v: error %v, encoding/json says %v", f, err, want)
		}
		rec := httptest.NewRecorder()
		writeEvalError(rec, err)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%v: status %d, want 500", f, rec.Code)
		}
	}
}

// FuzzJSONFloat holds the writer to json.Marshal on arbitrary bit
// patterns; non-finite patterns must not panic.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{0, 5e-324, math.MaxFloat64, 1 << 52, 1e-6, 1e21, 75.5, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if isNonFinite(v) {
			_ = appendJSONFloat(nil, v)
			return
		}
		checkJSONFloat(t, v)
	})
}
