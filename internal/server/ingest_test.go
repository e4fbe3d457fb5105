package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// liveServer builds a server with an ingestion pipeline over the given
// WAL medium, sharing one obs registry between them (as cmd/moserver
// does) so ingest and epoch counters surface at /v1/metrics.
func liveServer(t *testing.T, icfg ingest.Config) (*Server, *ingest.Pipeline) {
	t.Helper()
	reg := obs.New(0)
	if icfg.Metrics == nil {
		icfg.Metrics = reg
	}
	p, err := ingest.Open(icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	s, err := New(Config{Ingest: p, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func post(t *testing.T, h http.Handler, url, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad json from POST %s: %v (%s)", url, err, rec.Body.String())
	}
	return rec.Code, out
}

// TestIngestReadYourWrites POSTs a batch with ?sync=1 and immediately
// queries it back through /v1/atinstant, /v1/window and /v1/objects.
func TestIngestReadYourWrites(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	code, body := post(t, h, "/v1/ingest?sync=1",
		`[{"id":"car1","t":0,"x":10,"y":10},{"id":"car1","t":10,"x":20,"y":10}]`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, body)
	}
	if body["accepted"].(float64) != 2 || body["seq"].(float64) != 1 || body["synced"] != true {
		t.Fatalf("ack body: %v", body)
	}
	code, body = get(t, h, "/v1/atinstant?t=5")
	if code != 200 {
		t.Fatalf("atinstant: %d %v", code, body)
	}
	pos := body["positions"].([]any)
	if len(pos) != 1 {
		t.Fatalf("positions: %v", pos)
	}
	p0 := pos[0].(map[string]any)
	if p0["id"] != "car1" || p0["x"].(float64) != 15 || p0["y"].(float64) != 10 {
		t.Fatalf("interpolated position: %v", p0)
	}
	code, body = get(t, h, "/v1/window?x1=14&y1=9&x2=16&y2=11&t1=0&t2=10")
	if code != 200 || body["total"].(float64) != 1 {
		t.Fatalf("window: %d %v", code, body)
	}
	if ids := body["ids"].([]any); ids[0] != "car1" {
		t.Fatalf("window ids: %v", ids)
	}
	code, body = get(t, h, "/v1/objects")
	if code != 200 || body["total"].(float64) != 1 {
		t.Fatalf("objects: %d %v", code, body)
	}
	code, body = get(t, h, "/v1/healthz")
	if code != 200 || body["ingest"] == nil {
		t.Fatalf("healthz without ingest stats: %d %v", code, body)
	}
}

// TestIngestBackpressure429 fills the bounded queue and checks the 429
// envelope.
func TestIngestBackpressure429(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 2})
	h := s.Handler()
	if code, body := post(t, h, "/v1/ingest", `[{"id":"a","t":1,"x":0,"y":0},{"id":"a","t":2,"x":1,"y":0}]`); code != http.StatusAccepted {
		t.Fatalf("first POST: %d %v", code, body)
	}
	code, body := post(t, h, "/v1/ingest", `[{"id":"b","t":1,"x":0,"y":0}]`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d %v", code, body)
	}
	if c, _ := envelope(t, body); c != CodeBackpressure {
		t.Fatalf("error code: %s", c)
	}
}

// TestIngestBadRequests checks the 400 paths: malformed JSON, unknown
// fields, an empty batch, a missing id, and an oversized batch.
func TestIngestBadRequests(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{})
	h := s.Handler()
	one := `{"id":"a","t":1,"x":0,"y":0}`
	oversized := "[" + strings.Repeat(one+",", maxIngestBatch) + one + "]"
	for _, body := range []string{
		`{`,
		`{"observations":[]}`,
		`[]`,
		`[{"id":"","t":1,"x":0,"y":0}]`,
		`[{"id":"a","t":1,"x":0,"y":0,"bogus":1}]`,
		oversized,
	} {
		code, resp := post(t, h, "/v1/ingest", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %.80s: want 400, got %d %v", body, code, resp)
		}
		if c, _ := envelope(t, resp); c != CodeBadRequest {
			t.Fatalf("body %.80s: error code %s", body, c)
		}
	}
}

// TestIngestDisabled checks the read-only server's answer on the
// ingest route.
func TestIngestDisabled(t *testing.T) {
	s := testServer(t)
	code, body := post(t, s.Handler(), "/v1/ingest", `[{"id":"a","t":1,"x":0,"y":0}]`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d %v", code, body)
	}
	if c, _ := envelope(t, body); c != CodeUnavailable {
		t.Fatalf("error code: %s", c)
	}
	// No legacy alias for the new route.
	if code, _ := post(t, s.Handler(), "/ingest", `[]`); code != http.StatusNotFound {
		t.Fatalf("alias must not exist: %d", code)
	}
}

// TestIngestCrashRecoveryHTTP is the acceptance crash scenario at the
// API level: observations are POSTed and acknowledged with 202 but
// never flushed; the process "dies"; a server restarted from the WAL
// medium's durable image answers /v1/atinstant identically to one that
// had flushed normally.
func TestIngestCrashRecoveryHTTP(t *testing.T) {
	log := storage.NewPageStore()
	s, _ := liveServer(t, ingest.Config{Log: log, FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		code, body := post(t, h, "/v1/ingest",
			fmt.Sprintf(`[{"id":"t1","t":%d,"x":%d,"y":0},{"id":"t2","t":%d,"x":0,"y":%d}]`, i*10, i*5, i*10, i*7))
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, body)
		}
	}
	var disk bytes.Buffer
	if _, err := log.WriteTo(&disk); err != nil {
		t.Fatal(err)
	}
	// Crash: the first server is abandoned un-flushed and un-closed.
	recovered, err := storage.ReadPageStore(bytes.NewReader(disk.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := liveServer(t, ingest.Config{Log: recovered})
	h2 := s2.Handler()
	for _, q := range []string{"/v1/atinstant?t=15", "/v1/atinstant?t=40", "/v1/atinstant?t=0"} {
		code, body := get(t, h2, q)
		if code != 200 {
			t.Fatalf("%s after recovery: %d %v", q, code, body)
		}
		pos := body["positions"].([]any)
		if len(pos) != 2 {
			t.Fatalf("%s: want both acknowledged objects, got %v", q, pos)
		}
	}
	// Interpolated mid-sample value survives exactly: t1 moves x=t/2.
	_, body := get(t, h2, "/v1/atinstant?t=15")
	for _, raw := range body["positions"].([]any) {
		p := raw.(map[string]any)
		if p["id"] == "t1" && p["x"].(float64) != 7.5 {
			t.Fatalf("recovered interpolation: %v", p)
		}
	}
}
