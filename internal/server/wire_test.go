package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/temporal"
)

// jsonLine is the reference rendering of a response body: what the
// routes served before they were hand-encoded — json.Marshal of a
// map[string]any plus the newline.
func jsonLine(v map[string]any) (string, error) {
	b, err := json.Marshal(v)
	return string(b) + "\n", err
}

// TestEncodersMatchJSONMarshal holds every appended body byte-identical
// to encoding/json's rendering of the map shape it replaced: sorted
// keys, [] v null, -0, exponent clean-up, HTML-safe escaping, and the
// same error for a non-finite float.
func TestEncodersMatchJSONMarshal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 1, -1.5, 1e21, 1e-7, 123456789.125, 1e20, 1e-6, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(-1)}
	ids := []string{"veh-0001", "", `a"b\c`, "<tag>&amp;", "caf\u00e9", "line\nbreak\ttab\x01", "bad\xffutf8", "sep\u2028\u2029", "\x7f"}
	check := func(name string, got []byte, gerr error, shape map[string]any) {
		t.Helper()
		want, werr := jsonLine(shape)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("%s: error %v, encoding/json says %v", name, gerr, werr)
		} else if gerr == nil && string(got) != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	pg := pageReq{Limit: 3, Offset: 7}
	for _, idSet := range [][]string{nil, {}, ids, ids[:1]} {
		got, err := appendWindowBody(nil, 12, pg, idSet)
		check("window", got, err, map[string]any{"total": 12, "limit": 3, "offset": 7, "ids": idSet})
	}
	for i, f := range floats {
		g := floats[(i+1)%len(floats)]
		id := ids[i%len(ids)]

		ps := []ingest.Position{{ID: id, X: f, Y: g}, {ID: "b", X: g, Y: f}}
		for _, set := range [][]ingest.Position{nil, {}, ps} {
			got, err := appendAtInstantBody(nil, f, set)
			check("atinstant", got, err, map[string]any{"t": f, "positions": set})
		}

		sums := []ingest.ObjectSummary{{ID: id, Units: i, From: f, To: g}, {ID: "b"}}
		for _, set := range [][]ingest.ObjectSummary{nil, {}, sums} {
			got, err := appendObjectsBody(nil, 40, pg, set)
			check("objects", got, err, map[string]any{"total": 40, "limit": 3, "offset": 7, "objects": set})
		}

		q := nearbyReq{X: 1, Y: 2, T: f, K: i, Radius: -1}
		rs := []ingest.NearbyResult{{ID: id, X: f, Y: g, Dist: math.Abs(g)}, {ID: "b", Dist: 1e-9}}
		for _, set := range [][]ingest.NearbyResult{nil, {}, rs} {
			got, err := appendNearbyBody(nil, q, set)
			check("nearby", got, err, map[string]any{"t": f, "k": i, "radius": -1.0, "count": len(set), "results": set})
		}
	}
	for _, synced := range []bool{false, true} {
		got := appendIngestAck(nil, 570, math.MaxUint64, synced)
		check("ack", got, nil, map[string]any{"accepted": 570, "seq": uint64(math.MaxUint64), "synced": synced})
	}
}

// TestHotRouteBodiesMatchReference drives the four epoch routes over
// HTTP and compares each body with encoding/json's rendering of the
// same epoch accessors — radius=-1 in the body of a pure k query,
// paging past the end, an empty result set.
func TestHotRouteBodiesMatchReference(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	ep := s.pinEpoch()
	all := ep.Window(geom.Rect{MaxX: 1000, MaxY: 1000}, temporal.Closed(0, 1000))
	sums := ep.Summaries()
	lo, hi := pageBounds(len(all), 1000, 0)
	plo, phi := pageBounds(len(all), 5, 9999)
	slo, shi := pageBounds(len(sums), 2, 1)
	near := ep.Nearest(500, 500, 100, 3, -1)
	for url, shape := range map[string]map[string]any{
		"/v1/atinstant?t=100":                                                   {"t": 100.0, "positions": ep.AtInstant(100)},
		"/v1/atinstant?t=-1e300":                                                {"t": -1e300, "positions": ep.AtInstant(-1e300)},
		"/v1/window?x1=0&y1=0&x2=1000&y2=1000&t1=0&t2=1000":                     {"total": len(all), "limit": 1000, "offset": 0, "ids": all[lo:hi]},
		"/v1/window?x1=0&y1=0&x2=1000&y2=1000&t1=0&t2=1000&limit=5&offset=9999": {"total": len(all), "limit": 5, "offset": 9999, "ids": all[plo:phi]},
		"/v1/objects?limit=2&offset=1":                                          {"total": len(sums), "limit": 2, "offset": 1, "objects": sums[slo:shi]},
		"/v1/nearby?x=500&y=500&t=100&k=3":                                      {"t": 100.0, "k": 3, "radius": -1.0, "count": len(near), "results": near},
		"/v1/nearby?x=500&y=500&t=-5&radius=1e-7":                               {"t": -5.0, "k": 0, "radius": 1e-7, "count": 0, "results": []ingest.NearbyResult{}},
	} {
		// Two collections empty the buffer pools, so each request runs as
		// a process's first does: an empty answer from a fresh positions
		// buffer must still encode as [], not null.
		runtime.GC()
		runtime.GC()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		want, err := jsonLine(shape)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != 200 || rec.Body.String() != want {
			t.Errorf("%s: %d\n got %s\nwant %s", url, rec.Code, rec.Body.String(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", url, ct)
		}
	}
	if len(all) == 0 || len(near) == 0 {
		t.Fatalf("reference results are empty (window %d, nearby %d); the comparison proves nothing", len(all), len(near))
	}
}

// TestIngestTrailingData: after the observation array only whitespace
// may follow. json.Decoder.Decode stops after the first value, so a
// second array (or garbage) used to be acknowledged 202 and dropped.
func TestIngestTrailingData(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	const obs = `{"id":"car1","t":0,"x":1,"y":1}`
	for _, body := range []string{
		"[" + obs + "] [" + obs + "]",
		"[" + obs + "]garbage",
		"[" + obs + "],",
		`[{"ID":"car1","t":0,"x":1,"y":1}] x`, // declined by the scanner, caught on the fallback
		"[]]",
	} {
		code, out := post(t, h, "/v1/ingest?sync=1", body)
		if ecode, msg := envelope(t, out); code != http.StatusBadRequest || ecode != CodeBadRequest ||
			!strings.Contains(msg, "unexpected data after the observation array") {
			t.Errorf("body %q: %d %v, want 400 bad_request (trailing data)", body, code, out)
		}
	}
	for _, body := range []string{"[" + obs + "]", " \t[" + obs + "]\r\n \n", `[{"ID":"car1","T":1,"x":1,"y":1}]` + "\n"} {
		if code, out := post(t, h, "/v1/ingest", body); code != http.StatusAccepted {
			t.Errorf("body %q: %d %v, want 202", body, code, out)
		}
	}
}

// TestIngestBodyLimit: the instrumentation still bounds POST bodies now
// that bodiless requests are no longer wrapped.
func TestIngestBodyLimit(t *testing.T) {
	p, err := ingest.Open(ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	s, err := New(Config{Ingest: p, MaxBodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	body := "[" + strings.Repeat(`{"id":"car1","t":0,"x":1,"y":1},`, 4) + `{"id":"car1","t":1,"x":1,"y":1}]`
	code, out := post(t, s.Handler(), "/v1/ingest", body)
	if _, msg := envelope(t, out); code != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
		t.Fatalf("oversized body: %d %v, want 400 (request body too large)", code, out)
	}
}

// sameObservations compares bit for bit (so -0 ≠ 0 and NaNs would
// compare by payload).
func sameObservations(a, b []ingest.Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectID != b[i].ObjectID ||
			math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// FuzzIngestDecode holds the observation scanner to encoding/json: it
// may decline anything, but whatever it accepts encoding/json accepts
// too (with nothing but whitespace after the array) and decodes to the
// same observations bit for bit; and decodeObservations as a whole
// accepts exactly what the reference accepts.
func FuzzIngestDecode(f *testing.F) {
	const obs = `{"id":"a","t":1,"x":2.5,"y":-3e2}`
	for _, seed := range []string{
		"[" + obs + "]", "[" + obs + "," + obs + "]", " [ { \"y\" : 1 , \"id\" : \"b\" } ] \n", "[]", "[{}]", "",
		`[{"ID":"a","T":1}]`, `[{"id":"a","id":"b"}]`, `[{"t":1,"t":2}]`, `[{"id":null,"t":null}]`, "null",
		`[{"id":"\u0061"}]`, `[{"id":"a\\b"}]`, "[{\"id\":\"\xff\"}]", `[{"id":"caf` + "\u00e9" + `"}]`, `[{"\u0069d":"a"}]`,
		`[{"t":1e999}]`, `[{"t":-1e999}]`, `[{"t":1e-999}]`, `[{"t":01}]`, `[{"t":+1}]`, `[{"t":.5}]`, `[{"t":5.}]`,
		`[{"t":-0}]`, `[{"t":-}]`, `[{"t":1E+2}]`, `[{"t":1e}]`, `[{"t":0x10}]`, `[{"t":"1"}]`, `[{"t":NaN}]`,
		`[{"t":12345678901234567890123456789012345678901234567890}]`, `[{"t":0.1234567890123456789012345678901234567890}]`,
		`[[` + obs + `]]`, `[{"id":{"a":1}}]`, `[{"id":["a"]}]`, `[{"z":1}]`, `{"id":"a"}`, `[` + obs, `[` + obs + `,`, `[{"id":"a`, `[{"id"`, `[{"t":1`,
		"[" + obs + "] [" + obs + "]", "[" + obs + "]x", "[" + obs + ",]", "[,]", `[{"id":"a",}]`, `[{,}]`, `[{"id" "a"}]`, `[{"t":1 "x":2}]`,
		"\ufeff[" + obs + "]", "[" + obs + "]\x00", `[{"id":"` + "\x7f" + `"}]`, `[{"id":"` + "\x1f" + `"}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkIngestDecode)
}

// TestIngestDecodeLargeBody is the seed the fuzzer cannot carry (a
// megabyte input stalls its mutator): a body past the default
// MaxBodyBytes, well-formed and truncated.
func TestIngestDecodeLargeBody(t *testing.T) {
	body := []byte("[" + strings.Repeat(`{"id":"a","t":1,"x":2.5,"y":-3e2},`, 40000) + `{"id":"b"}]`)
	if len(body) <= 1<<20 {
		t.Fatalf("body is %d bytes; want more than 1 MiB", len(body))
	}
	checkIngestDecode(t, body)
	checkIngestDecode(t, body[:len(body)/2])
}

func checkIngestDecode(t *testing.T, body []byte) {
	var want []ingest.Observation
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)
	if wantErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		wantErr = errTrailingData
	}
	if got, ok := scanObservations(body, 1<<20); ok {
		if wantErr != nil {
			t.Fatalf("scanner accepted %q, which the reference rejects: %v", body, wantErr)
		}
		if !sameObservations(got, want) {
			t.Fatalf("body %q:\nscanner   %+v\nreference %+v", body, got, want)
		}
	}
	got, err := decodeObservations(body, 1<<20)
	if (err == nil) != (wantErr == nil) || (err == nil && !sameObservations(got, want)) {
		t.Fatalf("body %q:\ndecodeObservations %+v, %v\nreference          %+v, %v", body, got, err, want, wantErr)
	}
}

// FuzzQueryParams holds the RawQuery scanner to url.ParseQuery for
// every parameter a route reads, and every read route to its contract
// under arbitrary query strings: 200 or a typed 400 envelope (408 when
// /v1/query honours a fuzzed timeout_ms), never a 5xx or a panic.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"x1=0&y1=0&x2=500&y2=500&t1=0&t2=500&limit=10&offset=2", "t=75.5", "x=1&y=2&t=3&k=4&radius=5", "limit=1&offset=0",
		"q=SELECT+id+FROM+planes+LIMIT+1", "q=SELECT%20id%20FROM%20planes&timeout_ms=50", "sync=1",
		"t=1&t=2", "t=&t=2", "t=%zz&t=2", "t=1;x=2&t=3", "%74=5", "t=%31", "t=1+2", "=5&t", "&&t=1&&", "t==1", "t=1&T=2",
		"x1=1e1&x1=10.0", "t=NaN", "t=Inf", "t=-0", "radius=-1&k=0", "limit=0", "offset=-1", "k=99999999999999999999", "timeout_ms=0",
		"x1=1&y1=1&x2=0&y2=0&t1=5&t2=1", "t=%", "t=%f", "%=1", "+=1", "t=\x00", "t=\xff", "q=" + strings.Repeat("a", 9000),
	} {
		f.Add(seed)
	}
	s := testServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		p := parseParams(raw)
		want, _ := url.ParseQuery(raw)
		for i, name := range paramNames {
			if p.vals[i] != want.Get(name) {
				t.Fatalf("query %q: %s = %q, url.ParseQuery says %q", raw, name, p.vals[i], want.Get(name))
			}
		}
		for _, route := range []string{"/v1/window", "/v1/atinstant", "/v1/nearby", "/v1/objects", "/v1/query"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, &http.Request{
				Method: "GET", URL: &url.URL{Path: route, RawQuery: raw},
				Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: http.NoBody,
			})
			switch {
			case rec.Code == http.StatusOK:
			case rec.Code == http.StatusBadRequest, rec.Code == http.StatusRequestTimeout && route == "/v1/query":
				var env map[string]apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"].Code == "" || env["error"].Message == "" {
					t.Fatalf("%s?%s: %d with an untyped body %q", route, raw, rec.Code, rec.Body.String())
				}
			default:
				t.Fatalf("%s?%s: status %d: %s", route, raw, rec.Code, rec.Body.String())
			}
		}
	})
}

// TestTimeoutParamCaps: ?timeout_ms= is capped in milliseconds before
// it becomes a Duration, so a value whose product with time.Millisecond
// overflows is the cap, not a negative deadline that answers 408 at once.
func TestTimeoutParamCaps(t *testing.T) {
	const def, max = 10 * time.Second, 60 * time.Second
	h := testServer(t).Handler()
	for _, c := range []struct {
		ms   string
		want time.Duration
		code int
	}{
		{"9223372036854775807", max, http.StatusOK},
		{strconv.FormatInt(int64(max/time.Millisecond)+1, 10), max, http.StatusOK},
		{"0", def, http.StatusBadRequest},
	} {
		p := parseParams("timeout_ms=" + c.ms)
		if got := p.timeout(def, max); got != c.want || (p.err != nil) != (c.code != http.StatusOK) {
			t.Errorf("timeout_ms=%s: %v (err %v), want %v", c.ms, got, p.err, c.want)
		}
		code, body := get(t, h, "/v1/query?q=SELECT+id+FROM+planes+LIMIT+1&timeout_ms="+c.ms)
		if code != c.code {
			t.Errorf("/v1/query with timeout_ms=%s: %d %v, want %d", c.ms, code, body, c.code)
		}
	}
}
