package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"movingdb/internal/db"
	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/workload"
)

// testFlights is the size of the testServer data set.
const testFlights = 20

// testObjects generates the testServer data set: a planes relation and
// the same flights as tracked objects.
func testObjects() (db.Catalog, []string, []moving.MPoint) {
	g := workload.New(2000)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(testFlights, 100) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	return db.Catalog{"planes": planes}, ids, objects
}

func testServer(t testing.TB) *Server {
	t.Helper()
	catalog, ids, objects := testObjects()
	s, err := New(Config{Catalog: catalog, ObjectIDs: ids, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stormServer builds a catalog of n moving regions and m flights whose
// cross product makes /v1/query genuinely expensive.
func stormServer(t *testing.T, flights, storms int) *Server {
	t.Helper()
	g := workload.New(4000)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(flights, 300) {
		planes.MustInsert(db.Tuple{f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	stormRel := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	for i := 0; i < storms; i++ {
		stormRel.MustInsert(db.Tuple{fmt.Sprintf("S%03d", i), g.Storm(0, 80, 10, 4)})
	}
	s, err := New(Config{
		Catalog:   db.Catalog{"planes": planes, "storms": stormRel},
		ObjectIDs: ids,
		Objects:   objects,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad json from %s: %v (%s)", url, err, rec.Body.String())
	}
	return rec.Code, body
}

// envelope extracts and shape-checks the v1 error envelope.
func envelope(t *testing.T, body map[string]any) (code, message string) {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", body)
	}
	code, ok = e["code"].(string)
	if !ok || code == "" {
		t.Fatalf("envelope missing code: %v", e)
	}
	message, ok = e["message"].(string)
	if !ok || message == "" {
		t.Fatalf("envelope missing message: %v", e)
	}
	return code, message
}

// TestQueryArithmeticOverflow: a statement whose arithmetic leaves the
// finite reals is a 400 bad_request naming the overflow, not a 500 from
// the JSON encoder nor a row that a NaN comparison let through.
func TestQueryArithmeticOverflow(t *testing.T) {
	r := db.NewRelation("r", db.Schema{{Name: "x", Type: db.TReal}})
	r.MustInsert(db.Tuple{1e308})
	r.MustInsert(db.Tuple{1e308})
	s, err := New(Config{Catalog: db.Catalog{"r": r}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, q := range []string{
		"SELECT 1e308 * 10.0 FROM r",
		"SELECT sum(x) FROM r",
		"SELECT avg(x) FROM r",
		"SELECT x FROM r WHERE 1e308 * 10.0 - 1e308 * 10.0 = 5.0",
	} {
		code, body := get(t, h, "/v1/query?q="+url.QueryEscape(q))
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d %v, want 400", q, code, body)
			continue
		}
		if ec, msg := envelope(t, body); ec != CodeBadRequest || !strings.Contains(msg, "arithmetic overflow") {
			t.Errorf("%s: envelope %q %q", q, ec, msg)
		}
	}
}

// TestQueryMeetingFlights: two flights that meet came within 1 of each
// other under every spelling of the question, and their closest approach
// is a number in the JSON answer, not a 500 from a NaN the encoder
// refuses.
func TestQueryMeetingFlights(t *testing.T) {
	planes := db.NewRelation("planes", db.Schema{{Name: "id", Type: db.TString}, {Name: "flight", Type: db.TMPoint}})
	for _, f := range []struct {
		id      string
		samples []moving.Sample
	}{
		{"a", []moving.Sample{{T: 0, P: geom.Pt(548.30212201912, 359.35178307712)}, {T: 10, P: geom.Pt(638.30212201912, 199.35178307712)}}},
		{"b", []moving.Sample{{T: 0, P: geom.Pt(534.73616269216, 205.60424403823998)}, {T: 10, P: geom.Pt(654.73616269216, 385.60424403824)}}},
	} {
		p, err := moving.MPointFromSamples(f.samples)
		if err != nil {
			t.Fatal(err)
		}
		planes.MustInsert(db.Tuple{f.id, p})
	}
	s, err := New(Config{Catalog: db.Catalog{"planes": planes}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const closest = "val(initial(atmin(distance(p.flight, q.flight))))"
	for _, where := range []string{
		closest + " < 1",
		closest + " <= 1",
		"min(distance(p.flight, q.flight)) < 1",
		"true",
	} {
		q := "SELECT p.id, q.id, " + closest + " AS d FROM planes p, planes q WHERE p.id < q.id AND " + where
		code, body := get(t, h, "/v1/query?q="+url.QueryEscape(q))
		if code != http.StatusOK {
			t.Errorf("%s: %d %v, want 200", q, code, body)
			continue
		}
		rows, _ := body["rows"].([]any)
		if len(rows) != 1 {
			t.Errorf("%s: rows %v, want the one pair a, b", q, body["rows"])
			continue
		}
		row := rows[0].([]any)
		if d, ok := row[2].(float64); row[0] != "a" || row[1] != "b" || !ok || !(0 <= d && d < 1) {
			t.Errorf("%s: row %v, want a, b and a closest approach in [0, 1)", q, row)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	url := "/v1/query?q=SELECT+airline,+id,+length(trajectory(flight))+AS+len+FROM+planes+WHERE+airline+=+'Lufthansa'+ORDER+BY+len+DESC+LIMIT+3"
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad json: %v (%s)", err, rec.Body.String())
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %v", rec.Code, body)
	}
	rows := body["rows"].([]any)
	if len(rows) == 0 || len(rows) > 3 {
		t.Fatalf("rows = %v", rows)
	}
	cols := body["columns"].([]any)
	if cols[2].(string) != "len:real" {
		t.Errorf("columns = %v", cols)
	}
	// elapsed_ms moved out of the cached body (PR 7): the evaluating
	// response reports it in X-MO-Elapsed so cached bytes are stable.
	if _, ok := body["elapsed_ms"]; ok {
		t.Errorf("elapsed_ms leaked back into the body: %v", body)
	}
	if rec.Header().Get("X-MO-Elapsed") == "" {
		t.Errorf("missing X-MO-Elapsed header on an evaluating request")
	}
	if rec.Header().Get("ETag") == "" {
		t.Errorf("missing ETag on /v1/query")
	}
	// Syntax error surfaces as 400 with the envelope.
	code, body := get(t, h, "/v1/query?q=SELECT")
	if code != http.StatusBadRequest {
		t.Errorf("bad query: %d %v", code, body)
	}
	if ec, _ := envelope(t, body); ec != CodeBadRequest {
		t.Errorf("code = %q", ec)
	}
	// Missing q.
	code, body = get(t, h, "/v1/query")
	if code != http.StatusBadRequest {
		t.Errorf("missing q: %d", code)
	}
	envelope(t, body)
	// Bad timeout_ms.
	code, body = get(t, h, "/v1/query?q=SELECT+id+FROM+planes&timeout_ms=-5")
	if code != http.StatusBadRequest {
		t.Errorf("bad timeout_ms: %d", code)
	}
	envelope(t, body)
}

func TestQueryTooLong(t *testing.T) {
	s, err := New(Config{MaxQueryLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	long := "SELECT+id+FROM+planes+WHERE+airline+=+'AAAAAAAAAAAAAAAAAAAAAAAAAA'"
	code, body := get(t, s.Handler(), "/v1/query?q="+long)
	if code != http.StatusBadRequest {
		t.Fatalf("code = %d", code)
	}
	if ec, _ := envelope(t, body); ec != CodeQueryTooLong {
		t.Errorf("code = %q", ec)
	}
}

func TestNotFoundEnvelope(t *testing.T) {
	h := testServer(t).Handler()
	// An unknown version, and an unversioned path (the pre-v1 aliases are
	// gone).
	for _, url := range []string{"/v2/query?q=SELECT", "/objects"} {
		code, body := get(t, h, url)
		if code != http.StatusNotFound {
			t.Fatalf("%s: code = %d", url, code)
		}
		if ec, _ := envelope(t, body); ec != CodeNotFound {
			t.Errorf("%s: code = %q", url, ec)
		}
	}
}

func TestAtInstantEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	code, body := get(t, h, "/v1/atinstant?t=50")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if _, ok := body["positions"]; !ok {
		t.Fatalf("body = %v", body)
	}
	code, body = get(t, h, "/v1/atinstant?t=abc")
	if code != http.StatusBadRequest {
		t.Errorf("bad t: %d", code)
	}
	envelope(t, body)
}

func TestWindowEndpointAndPagination(t *testing.T) {
	h := testServer(t).Handler()
	code, body := get(t, h, "/v1/window?x1=0&y1=0&x2=1000&y2=1000&t1=0&t2=1000")
	if code != http.StatusOK {
		t.Fatalf("code = %d: %v", code, body)
	}
	ids := body["ids"].([]any)
	total := int(body["total"].(float64))
	if total != testFlights || len(ids) != total {
		t.Errorf("whole-world window: total=%d ids=%d objects=%d", total, len(ids), testFlights)
	}
	// Pagination: limit 5 offset 5 keeps total but returns one page.
	_, body = get(t, h, "/v1/window?x1=0&y1=0&x2=1000&y2=1000&t1=0&t2=1000&limit=5&offset=5")
	if got := len(body["ids"].([]any)); got != 5 {
		t.Errorf("page ids = %d", got)
	}
	if int(body["total"].(float64)) != total {
		t.Errorf("paged total = %v, want %d", body["total"], total)
	}
	// Offset past the end yields an empty page.
	_, body = get(t, h, fmt.Sprintf("/v1/window?x1=0&y1=0&x2=1000&y2=1000&t1=0&t2=1000&offset=%d", total+10))
	if got := len(body["ids"].([]any)); got != 0 {
		t.Errorf("past-end page = %d ids", got)
	}
	// Empty window far away.
	_, body = get(t, h, "/v1/window?x1=-500&y1=-500&x2=-400&y2=-400&t1=0&t2=1000")
	if got := body["ids"].([]any); len(got) != 0 {
		t.Errorf("far window ids = %v", got)
	}
	// t2 < t1.
	code, body = get(t, h, "/v1/window?x1=0&y1=0&x2=1&y2=1&t1=10&t2=0")
	if code != http.StatusBadRequest {
		t.Errorf("reversed interval: %d", code)
	}
	envelope(t, body)
	// Missing parameter.
	code, _ = get(t, h, "/v1/window?x1=0")
	if code != http.StatusBadRequest {
		t.Errorf("missing params: %d", code)
	}
	// Bad limit.
	code, _ = get(t, h, "/v1/window?x1=0&y1=0&x2=1&y2=1&t1=0&t2=1&limit=nope")
	if code != http.StatusBadRequest {
		t.Errorf("bad limit: %d", code)
	}
}

func TestObjectsEndpointAndPagination(t *testing.T) {
	h := testServer(t).Handler()
	code, body := get(t, h, "/v1/objects")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	objs := body["objects"].([]any)
	if len(objs) != testFlights || int(body["total"].(float64)) != testFlights {
		t.Errorf("objects = %d total = %v", len(objs), body["total"])
	}
	first := objs[0].(map[string]any)
	if first["units"].(float64) <= 0 {
		t.Error("unit count missing")
	}
	// Second page of 7.
	_, body = get(t, h, "/v1/objects?limit=7&offset=7")
	page := body["objects"].([]any)
	if len(page) != 7 {
		t.Fatalf("page = %d", len(page))
	}
	if page[0].(map[string]any)["id"] == first["id"] {
		t.Error("offset ignored")
	}
	if int(body["total"].(float64)) != testFlights {
		t.Errorf("paged total = %v", body["total"])
	}
}

func TestHealthz(t *testing.T) {
	code, body := get(t, testServer(t).Handler(), "/v1/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	if int(body["objects"].(float64)) != testFlights {
		t.Errorf("objects = %v", body["objects"])
	}
}

// TestQueryTimeoutEnvelopeAndMetrics is the acceptance scenario: a
// ?timeout_ms=10 query over a catalog of 100+ moving regions crossed
// with flights returns a 408 envelope in bounded time because the
// evaluator observes cancellation, and the metrics registry afterwards
// shows the request with its latency and the timeout counted. The storms
// are crossed in twice: the filtered planes × storms join alone finishes
// inside the deadline, 400 000 rows need some fifty times as long.
func TestQueryTimeoutEnvelopeAndMetrics(t *testing.T) {
	s := stormServer(t, 40, 100)
	h := s.Handler()
	q := "/v1/query?timeout_ms=10&q=SELECT+s.name+FROM+planes,+storms+s,+storms+r+WHERE+sometimes(inside(flight,+s.extent))"
	start := time.Now()
	code, body := get(t, h, q)
	elapsed := time.Since(start)
	if code != http.StatusRequestTimeout {
		t.Fatalf("code = %d: %v", code, body)
	}
	if ec, _ := envelope(t, body); ec != CodeTimeout {
		t.Errorf("code = %q", ec)
	}
	// Bounded time: far below what the full cross product would need,
	// generous enough for a loaded CI machine.
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
	// Metrics recorded the request, its latency, and the timeout; the
	// slow-query log marks the entry timed out.
	snap := s.Metrics().Snapshot()
	rt := snap.Requests["/v1/query"]
	if rt.Count != 1 || rt.Timeouts != 1 || rt.Statuses["408"] != 1 {
		t.Fatalf("route stats = %+v", rt)
	}
	if rt.MaxMillis <= 0 {
		t.Errorf("latency not recorded: %+v", rt)
	}
	if len(snap.SlowQueries) == 0 || !snap.SlowQueries[0].TimedOut {
		t.Errorf("slow query log = %+v", snap.SlowQueries)
	}
	if snap.Operators["inside"].Count == 0 {
		t.Errorf("operator timings = %v", snap.Operators)
	}
	// /v1/metrics serves the same data over HTTP.
	code, mbody := get(t, h, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics code = %d", code)
	}
	reqs := mbody["requests"].(map[string]any)
	if _, ok := reqs["/v1/query"]; !ok {
		t.Errorf("metrics missing /v1/query: %v", reqs)
	}
}

// TestSlowQueryEntryCarriesClientStatus: a slow /v1/query that fails
// with a non-timeout error must land in the slow-query ring with the
// status the client received, not 200.
func TestSlowQueryEntryCarriesClientStatus(t *testing.T) {
	catalog, ids, objects := testObjects()
	s, err := New(Config{Catalog: catalog, ObjectIDs: ids, Objects: objects, SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, s.Handler(), "/v1/query?q=SELECT+nosuch(flight)+FROM+planes")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown function: %d %v", code, body)
	}
	slow := s.Metrics().Snapshot().SlowQueries
	if len(slow) != 1 || slow[0].Status != http.StatusBadRequest || slow[0].TimedOut {
		t.Fatalf("slow-query ring = %+v, want one entry with status 400", slow)
	}
}

// TestSlowQueryTextCutOnRuneBoundary: the slow-query entry keeps the
// first 200 bytes of the statement; a multi-byte rune straddling byte
// 200 must be dropped whole, not cut into invalid UTF-8 (which
// encoding/json would then serve as U+FFFD from /v1/metrics).
func TestSlowQueryTextCutOnRuneBoundary(t *testing.T) {
	catalog, ids, objects := testObjects()
	s, err := New(Config{Catalog: catalog, ObjectIDs: ids, Objects: objects, SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT id FROM planes WHERE id <> '"
	sql += strings.Repeat("x", 199-len(sql)) + "é" + strings.Repeat("y", 20) + "'" // é occupies bytes 199 and 200
	if code, body := get(t, s.Handler(), "/v1/query?q="+url.QueryEscape(sql)); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	slow := s.Metrics().Snapshot().SlowQueries
	if len(slow) != 1 {
		t.Fatalf("slow-query ring = %+v, want one entry", slow)
	}
	if got, want := slow[0].Query, sql[:199]+"…"; got != want || !utf8.ValidString(got) {
		t.Errorf("slow-query text = %q, want %q", got, want)
	}
}

// TestConcurrentRequests exercises /v1/query and /v1/window in parallel
// for the race detector.
func TestConcurrentRequests(t *testing.T) {
	h := testServer(t).Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var url string
				if (g+i)%2 == 0 {
					url = "/v1/query?q=SELECT+airline,+travelled(flight)+AS+d+FROM+planes+ORDER+BY+d+DESC+LIMIT+5"
				} else {
					url = "/v1/window?x1=0&y1=0&x2=500&y2=500&t1=0&t2=500&limit=10"
				}
				req := httptest.NewRequest("GET", url, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s = %d: %s", url, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := testMetricsTotal(t, h)
	if snap < 80 {
		t.Errorf("metrics counted %d requests, want 80", snap)
	}
}

// testMetricsTotal sums the per-route request counts via /v1/metrics.
func testMetricsTotal(t *testing.T, h http.Handler) int {
	t.Helper()
	_, body := get(t, h, "/v1/metrics")
	total := 0
	for _, v := range body["requests"].(map[string]any) {
		total += int(v.(map[string]any)["count"].(float64))
	}
	return total
}

func TestNewValidations(t *testing.T) {
	if _, err := New(Config{ObjectIDs: []string{"a"}}); err == nil {
		t.Error("mismatched ids accepted")
	}
	// The tracked objects have one source: a pipeline brings its own
	// seeds, so handing the server objects as well is a wiring mistake.
	p, err := ingest.Open(ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, ids, objects := testObjects()
	if _, err := New(Config{Ingest: p, ObjectIDs: ids, Objects: objects}); err == nil {
		t.Error("Ingest and Objects both set accepted")
	}
}

// TestNewRejectsNegativeTuning: a negative tuning value is a startup
// error, as in ingest.Open. Each used to break the server at run time:
// a negative SSEHeartbeat panicked every event stream, a negative
// QueryTimeout answered every query 408, and a negative MaxBodyBytes
// lifted the body cap. CacheBytes < 0 keeps its meaning (no cache).
func TestNewRejectsNegativeTuning(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"QueryTimeout", Config{QueryTimeout: -time.Second}},
		{"MaxTimeout", Config{MaxTimeout: -time.Second}},
		{"MaxQueryLen", Config{MaxQueryLen: -1}},
		{"MaxBodyBytes", Config{MaxBodyBytes: -1}},
		{"SlowQueryThreshold", Config{SlowQueryThreshold: -time.Second}},
		{"SSEHeartbeat", Config{SSEHeartbeat: -time.Second}},
	} {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want an error naming it", tc.field, err)
		}
	}
	if _, err := New(Config{CacheBytes: -1}); err != nil {
		t.Errorf("CacheBytes -1 (no cache): %v", err)
	}
}

func TestPanicRecovery(t *testing.T) {
	// A relation value of the wrong dynamic type makes rendering panic;
	// the middleware must convert that into a 500 envelope.
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.instrument("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	req := httptest.NewRequest("GET", "/boom", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	envelope(t, body)
	if s.Metrics().Snapshot().Requests["/boom"].Errors != 1 {
		t.Error("panic not counted")
	}
}
