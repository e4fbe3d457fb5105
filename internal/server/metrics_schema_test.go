package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_schema.golden files from this run")

// TestMetricsSchemaGolden pins the shape of /v1/metrics: after one
// request per route, one ingest batch, one subscription with an event
// and one slow query, the sorted set of JSON key paths (each leaf
// reduced to its JSON kind) must equal the checked-in file. Dashboards
// and bench/ read these keys by name, so a refactor of internal/obs
// that renames, drops or nulls one fails here, not in production.
func TestMetricsSchemaGolden(t *testing.T) {
	metrics := obs.New(0)
	reg := live.NewRegistry(live.Config{Metrics: metrics})
	p, err := ingest.Open(ingest.Config{
		FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 1 << 30,
		Metrics: metrics, OnPublish: reg.Notify,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close(); p.Close() })
	catalog, _, _ := testObjects()
	s, err := New(Config{Catalog: catalog, Ingest: p, Live: reg, Metrics: metrics, SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	do := func(method, url, body string, want int) map[string]any {
		t.Helper()
		req := httptest.NewRequest(method, url, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, url, rec.Code, want, rec.Body.String())
		}
		var out map[string]any
		_ = json.Unmarshal(rec.Body.Bytes(), &out) // 304s and SSE bodies are not JSON
		return out
	}
	do("POST", "/v1/ingest?sync=1", `[{"id":"bus7","t":0,"x":10,"y":10},{"id":"bus7","t":30,"x":40,"y":10}]`, 202)
	sub := do("POST", "/v1/subscribe", `{"predicate":"inside","object":"bus7","region":{"x1":100,"y1":0,"x2":200,"y2":100}}`, 201)
	id := sub["subscription_id"].(string)
	do("POST", "/v1/ingest?sync=1", `[{"id":"bus7","t":60,"x":150,"y":10}]`, 202) // bus7 enters: one event
	waitInfo(t, h, id, 1)
	// The slow query (threshold 1ns) with an operator timing, then the
	// same URL again as a cache hit.
	q := "/v1/query?q=SELECT+airline,+travelled(flight)+AS+d+FROM+planes+ORDER+BY+d+DESC+LIMIT+5"
	do("GET", q, "", 200)
	do("GET", q, "", 200)
	do("GET", "/v1/query?q=SELECT+nosuch(flight)+FROM+planes", "", 400)
	// A predicate of a filtered shape, for the filters family.
	do("GET", "/v1/query?q=SELECT+count(*)+FROM+planes+p,+planes+q+WHERE+min(distance(p.flight,+q.flight))+<+5", "", 200)
	do("GET", "/v1/atinstant?t=45", "", 200)
	do("GET", "/v1/window?x1=0&y1=0&x2=500&y2=500&t1=0&t2=500", "", 200)
	do("GET", "/v1/objects?limit=2", "", 200)
	do("GET", "/v1/nearby?x=55&y=10&t=45&k=3", "", 200)
	do("GET", "/v1/healthz", "", 200)
	// The event stream ends when its client goes away: a request whose
	// context is already cancelled writes the banner and returns.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/subscribe/"+id+"/events", nil).WithContext(ctx))
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d", rec.Code)
	}
	do("DELETE", "/v1/subscribe/"+id, "", 200)
	do("GET", "/v1/metrics", "", 200) // a route is counted after it answers
	body := do("GET", "/v1/metrics", "", 200)

	set := map[string]bool{}
	keyPaths("", body, set)
	checkSchemaGolden(t, "/v1/metrics", "testdata/metrics_schema.golden", set)
}

// TestHealthzSchemaGolden pins the shape of /v1/healthz for a read-only
// server and for a live one (pipeline counters and the health block),
// the same way TestMetricsSchemaGolden pins /v1/metrics: probes and
// operators read these keys by name.
func TestHealthzSchemaGolden(t *testing.T) {
	catalog, ids, objects := testObjects()
	ro, err := New(Config{Catalog: catalog, ObjectIDs: ids, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ingest.Open(ingest.Config{SeedIDs: ids, Seeds: objects})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	lv, err := New(Config{Catalog: catalog, Ingest: p})
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, sv := range []struct {
		name string
		s    *Server
	}{{"readonly", ro}, {"live", lv}} {
		code, body := get(t, sv.s.Handler(), "/v1/healthz")
		if code != http.StatusOK {
			t.Fatalf("%s healthz: %d %v", sv.name, code, body)
		}
		keyPaths(sv.name, body, set)
	}
	checkSchemaGolden(t, "/v1/healthz", "testdata/healthz_schema.golden", set)
}

// checkSchemaGolden compares the sorted key paths in set with the golden
// file, or rewrites the file under -update.
func checkSchemaGolden(t *testing.T, route, golden string, set map[string]bool) {
	t.Helper()
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s key paths differ from %s (-update regenerates it; only do that for an intended schema change)\ngot:\n%s\nwant:\n%s", route, golden, got, want)
	}
}

// keyPaths adds every leaf of a decoded JSON value to set as
// "path = kind": objects extend the path with ".key", array elements
// share "path[]", and an empty object or array is a leaf of that kind
// (so a map that used to be {} cannot silently become null).
func keyPaths(path string, v any, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			set[path+" = object"] = true
		}
		for k, child := range x {
			keyPaths(strings.TrimPrefix(path+"."+k, "."), child, set)
		}
	case []any:
		if len(x) == 0 {
			set[path+" = array"] = true
		}
		for _, child := range x {
			keyPaths(path+"[]", child, set)
		}
	case nil:
		set[path+" = null"] = true
	default:
		set[fmt.Sprintf("%s = %T", path, x)] = true
	}
}
