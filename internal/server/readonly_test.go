package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"testing"

	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// readOnlyFlights builds a read-only server over the testServer flights
// (a seeded workload.Flights set) and returns the set beside it, as the
// reference the responses are checked against.
func readOnlyFlights(t *testing.T) (http.Handler, []string, []moving.MPoint) {
	t.Helper()
	_, ids, objects := testObjects()
	s, err := New(Config{ObjectIDs: ids, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler(), ids, objects
}

// decodeInto answers url and decodes the 200 body, checking that the
// response names the frozen epoch.
func decodeInto(t *testing.T, h http.Handler, url string, v any) {
	t.Helper()
	rec := getRec(t, h, url, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-MO-Epoch"); got != "0" {
		t.Fatalf("%s: X-MO-Epoch = %q, want 0", url, got)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestReadOnlyMatchesReference is the differential test of the one read
// path on a server without a pipeline: every epoch-backed route must
// give the answer the paper-level reference computes directly from the
// objects, in registration order, under epoch 0.
func TestReadOnlyMatchesReference(t *testing.T) {
	h, ids, objects := readOnlyFlights(t)

	hits := 0
	for _, q := range workload.New(78).WindowQueries(40, 0, 300) {
		iv := temporal.Closed(temporal.Instant(q.T1), temporal.Instant(q.T2))
		want := []string{}
		for _, oi := range index.ScanWindow(objects, q.Rect, iv) {
			want = append(want, ids[oi])
		}
		var got struct {
			Total int      `json:"total"`
			IDs   []string `json:"ids"`
		}
		decodeInto(t, h, fmt.Sprintf("/v1/window?x1=%v&y1=%v&x2=%v&y2=%v&t1=%v&t2=%v",
			q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.T1, q.T2), &got)
		if got.Total != len(want) || fmt.Sprint(got.IDs) != fmt.Sprint(want) {
			t.Fatalf("window %+v: got %d %v, scan %v", q, got.Total, got.IDs, want)
		}
		hits += len(want)
	}
	if hits == 0 {
		t.Fatal("no window matched anything; the comparison is vacuous")
	}

	for _, ti := range []float64{0, 33.25, 100, 250, 5000} {
		want := []ingest.Position{}
		for i, p := range objects {
			if v := p.AtInstant(temporal.Instant(ti)); v.Defined() {
				want = append(want, ingest.Position{ID: ids[i], X: v.P.X, Y: v.P.Y})
			}
		}
		var got struct {
			Positions []ingest.Position `json:"positions"`
		}
		decodeInto(t, h, fmt.Sprintf("/v1/atinstant?t=%v", ti), &got)
		if fmt.Sprint(got.Positions) != fmt.Sprint(want) {
			t.Fatalf("atinstant %v: got %v, want %v", ti, got.Positions, want)
		}
	}

	var listing struct {
		Total   int                    `json:"total"`
		Objects []ingest.ObjectSummary `json:"objects"`
	}
	decodeInto(t, h, "/v1/objects", &listing)
	if listing.Total != len(objects) || len(listing.Objects) != len(objects) {
		t.Fatalf("objects: total %d, %d rows, want %d", listing.Total, len(listing.Objects), len(objects))
	}
	for i, p := range objects {
		from, _ := p.DefTime().Min()
		to, _ := p.DefTime().Max()
		want := ingest.ObjectSummary{ID: ids[i], Units: p.M.Len(), From: float64(from), To: float64(to)}
		if listing.Objects[i] != want {
			t.Fatalf("objects[%d] = %+v, want %+v", i, listing.Objects[i], want)
		}
	}

	// Epoch 0 never advances: a repeat carries the same strong ETag and
	// revalidates to 304.
	first := getRec(t, h, testWindowURL, nil)
	etag := first.Header().Get("ETag")
	if etag == "" || getRec(t, h, testWindowURL, nil).Header().Get("ETag") != etag {
		t.Fatalf("ETag not stable across repeats: %q", etag)
	}
	if rec := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: %d", rec.Code)
	}
}

// TestReadOnlyNearbyMatchesBruteForce: /v1/nearby needs no pipeline —
// k-NN and range queries over the frozen epoch equal a brute-force scan
// of the same objects (distance ties break by registration order).
func TestReadOnlyNearbyMatchesBruteForce(t *testing.T) {
	h, ids, objects := readOnlyFlights(t)
	for _, q := range []struct {
		x, y, t float64
		k       int
		radius  float64
	}{
		{500, 500, 40, 5, -1},
		{0, 0, 10, 60, -1},
		{500, 500, 100, 0, 60},
		{300, 700, 120, 3, 400},
		{500, 500, 5000, 4, -1}, // nothing is defined this late
	} {
		want := []ingest.NearbyResult{}
		for i, p := range objects {
			v := p.AtInstant(temporal.Instant(q.t))
			if !v.Defined() {
				continue
			}
			d := math.Hypot(v.P.X-q.x, v.P.Y-q.y)
			if q.radius < 0 || d <= q.radius {
				want = append(want, ingest.NearbyResult{ID: ids[i], X: v.P.X, Y: v.P.Y, Dist: d})
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].Dist < want[b].Dist })
		if q.k > 0 && len(want) > q.k {
			want = want[:q.k]
		}
		url := fmt.Sprintf("/v1/nearby?x=%v&y=%v&t=%v", q.x, q.y, q.t)
		if q.k > 0 {
			url += fmt.Sprintf("&k=%d", q.k)
		}
		if q.radius >= 0 {
			url += fmt.Sprintf("&radius=%v", q.radius)
		}
		var got struct {
			Count   int                   `json:"count"`
			Results []ingest.NearbyResult `json:"results"`
		}
		decodeInto(t, h, url, &got)
		if got.Count != len(want) || fmt.Sprint(got.Results) != fmt.Sprint(want) {
			t.Fatalf("%s: got %v, brute force %v", url, got.Results, want)
		}
	}
}

// TestNonFiniteParamsRejected: strconv.ParseFloat accepts NaN and ±Inf,
// which used to reach the kernels (a panic on /v1/window) and the JSON
// encoder (500 "unsupported value"). Every read route answers 400.
func TestNonFiniteParamsRejected(t *testing.T) {
	h, _, _ := readOnlyFlights(t)
	for _, url := range []string{
		"/v1/atinstant?t=NaN",
		"/v1/atinstant?t=-Inf",
		"/v1/window?x1=0&y1=0&x2=1&y2=1&t1=NaN&t2=NaN",
		"/v1/window?x1=0&y1=0&x2=1&y2=1&t1=0&t2=Inf",
		"/v1/window?x1=NaN&y1=0&x2=1&y2=1&t1=0&t2=1",
		"/v1/nearby?x=0&y=0&t=Inf&k=3",
		"/v1/nearby?x=NaN&y=0&t=5&k=3",
		"/v1/nearby?x=0&y=0&t=5&radius=Inf",
		"/v1/nearby?x=0&y=0&t=5&radius=NaN",
	} {
		code, body := get(t, h, url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d %v", url, code, body)
			continue
		}
		if ec, _ := envelope(t, body); ec != CodeBadRequest {
			t.Errorf("%s: error code %q", url, ec)
		}
	}
	// /v1/objects and /v1/query take no float parameter; a finite
	// spelling in exponent form still parses.
	if code, body := get(t, h, "/v1/atinstant?t=1e2"); code != http.StatusOK {
		t.Errorf("finite exponent form rejected: %d %v", code, body)
	}
}
