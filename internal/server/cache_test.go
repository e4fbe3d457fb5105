package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"movingdb/internal/cache"
	"movingdb/internal/ingest"
)

// getRec is get() but returns the raw recorder for header inspection.
func getRec(t *testing.T, h http.Handler, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const testWindowURL = "/v1/window?x1=0&y1=0&x2=100&y2=100&t1=0&t2=100"

// TestCacheHitAndConditionalGet drives the full conditional-request
// contract on a static server: a repeat request is a cache hit with the
// same strong ETag, If-None-Match revalidation yields 304 with no body,
// and a different query gets a different tag.
func TestCacheHitAndConditionalGet(t *testing.T) {
	h := testServer(t).Handler()
	first := getRec(t, h, testWindowURL, nil)
	if first.Code != 200 {
		t.Fatalf("first: %d %s", first.Code, first.Body.String())
	}
	et := first.Header().Get("ETag")
	if et == "" || et[0] != '"' {
		t.Fatalf("ETag = %q, want strong quoted tag", et)
	}
	if got := first.Header().Get("X-MO-Cache"); got != "miss" {
		t.Errorf("first X-MO-Cache = %q", got)
	}
	if got := first.Header().Get("X-MO-Epoch"); got != "0" {
		t.Errorf("static X-MO-Epoch = %q, want 0", got)
	}

	second := getRec(t, h, testWindowURL, nil)
	if second.Header().Get("X-MO-Cache") != "hit" {
		t.Errorf("second X-MO-Cache = %q, want hit", second.Header().Get("X-MO-Cache"))
	}
	if second.Header().Get("ETag") != et {
		t.Errorf("ETag changed without an epoch change: %q vs %q", second.Header().Get("ETag"), et)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("cached body differs from computed body")
	}

	// Revalidation: 304, empty body, same tag.
	cond := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": et})
	if cond.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match: %d", cond.Code)
	}
	if cond.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", cond.Body.String())
	}
	if cond.Header().Get("ETag") != et {
		t.Errorf("304 ETag = %q", cond.Header().Get("ETag"))
	}
	// A stale or foreign tag must not 304.
	if rec := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": `"deadbeef-9"`}); rec.Code != 200 {
		t.Errorf("mismatched If-None-Match: %d, want 200", rec.Code)
	}
	// If-None-Match compares weakly (RFC 9110 §13.1.2): W/ on a listed
	// tag does not stop it matching, in any position of a list.
	for inm, want := range map[string]int{
		"W/" + et:               http.StatusNotModified,
		`W/"a", "b"`:            200,
		`W/"a", W/` + et:        http.StatusNotModified,
		`"b",` + et:             http.StatusNotModified,
		`W/"a" ,  ` + et + ` `:  http.StatusNotModified,
		"W/" + et[:len(et)-1]:   200, // unterminated: not the same tag
		`w/` + et:               200, // the prefix is case-sensitive
		`W/"a", "b", "deadbee"`: 200,
	} {
		if rec := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": inm}); rec.Code != want {
			t.Errorf("If-None-Match %s: %d, want %d", inm, rec.Code, want)
		}
	}
	// Wildcard matches anything.
	if rec := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusNotModified {
		t.Errorf("wildcard If-None-Match: %d, want 304", rec.Code)
	}

	// Distinct queries, distinct tags.
	other := getRec(t, h, "/v1/window?x1=0&y1=0&x2=50&y2=50&t1=0&t2=100", nil)
	if other.Header().Get("ETag") == et {
		t.Error("different window shares the ETag")
	}
}

// TestCanonicalizationSharesCacheEntries: spelling variants of the same
// request — swapped corners, explicit default pagination, float
// spellings — land on one cache entry and one ETag.
func TestCanonicalizationSharesCacheEntries(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	base := getRec(t, h, "/v1/window?x1=0&y1=0&x2=100&y2=100&t1=0&t2=100", nil)
	et := base.Header().Get("ETag")
	for _, variant := range []string{
		"/v1/window?x2=0&y2=0&x1=100&y1=100&t1=0&t2=100",          // mirrored corners
		"/v1/window?x1=0.0&y1=0&x2=1e2&y2=100.0&t1=0&t2=100",      // float spellings
		"/v1/window?x1=0&y1=0&x2=100&y2=100&t1=0&t2=100&offset=0", // explicit default
	} {
		rec := getRec(t, h, variant, nil)
		if rec.Header().Get("X-MO-Cache") != "hit" {
			t.Errorf("%s: X-MO-Cache = %q, want hit (canonicalization failed)", variant, rec.Header().Get("X-MO-Cache"))
		}
		if rec.Header().Get("ETag") != et {
			t.Errorf("%s: ETag = %q, want %q", variant, rec.Header().Get("ETag"), et)
		}
	}
	// SQL spelling variants share the /v1/query entry the same way.
	q1 := getRec(t, h, "/v1/query?q=SELECT+id+FROM+planes+LIMIT+2", nil)
	if q1.Code != 200 {
		t.Fatalf("query: %d %s", q1.Code, q1.Body.String())
	}
	q2 := getRec(t, h, "/v1/query?q=select++id+from+planes+limit+2", nil)
	if q2.Header().Get("X-MO-Cache") != "hit" {
		t.Errorf("case/space SQL variant missed the cache: %q", q2.Header().Get("X-MO-Cache"))
	}
	if q2.Body.String() != q1.Body.String() {
		t.Error("query cache returned different bytes for the same canonical SQL")
	}
}

// TestEpochAdvanceInvalidatesAndRetags is the satellite acceptance
// test, serialised: (a) ?sync=1 gives read-your-writes, (b) a window
// query cached before the write must not serve stale after the epoch
// advances, (c) the ETag changes exactly when the epoch does — repeat
// reads inside one epoch keep the tag, a flush moves it.
func TestEpochAdvanceInvalidatesAndRetags(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	url := "/v1/window?x1=0&y1=0&x2=100&y2=100&t1=0&t2=100"

	empty := getRec(t, h, url, nil)
	et0 := empty.Header().Get("ETag")
	epoch0 := empty.Header().Get("X-MO-Epoch")
	var body0 map[string]any
	if err := json.Unmarshal(empty.Body.Bytes(), &body0); err != nil {
		t.Fatal(err)
	}
	if body0["total"].(float64) != 0 {
		t.Fatalf("pre-write window not empty: %v", body0)
	}
	// Same epoch, same tag, cache hit.
	again := getRec(t, h, url, nil)
	if again.Header().Get("ETag") != et0 || again.Header().Get("X-MO-Cache") != "hit" {
		t.Fatalf("intra-epoch repeat: etag %q cache %q", again.Header().Get("ETag"), again.Header().Get("X-MO-Cache"))
	}

	// (a) Write with read-your-writes.
	code, ack := post(t, h, "/v1/ingest?sync=1", `[{"id":"w1","t":0,"x":50,"y":50},{"id":"w1","t":10,"x":60,"y":50}]`)
	if code != http.StatusAccepted || ack["synced"] != true {
		t.Fatalf("ingest: %d %v", code, ack)
	}

	// (b) The same URL now sees the write — no stale cache hit.
	after := getRec(t, h, url, nil)
	var body1 map[string]any
	if err := json.Unmarshal(after.Body.Bytes(), &body1); err != nil {
		t.Fatal(err)
	}
	if body1["total"].(float64) != 1 {
		t.Fatalf("post-write window stale: %v (cache %s)", body1, after.Header().Get("X-MO-Cache"))
	}
	if after.Header().Get("X-MO-Cache") != "miss" {
		t.Errorf("post-write read served from cache: %q", after.Header().Get("X-MO-Cache"))
	}

	// (c) Epoch and tag moved together.
	et1 := after.Header().Get("ETag")
	epoch1 := after.Header().Get("X-MO-Epoch")
	if epoch1 == epoch0 {
		t.Fatalf("epoch did not advance across a synced write: %s", epoch1)
	}
	if et1 == et0 {
		t.Fatal("ETag survived an epoch advance")
	}
	// The old tag no longer revalidates; the new one does.
	if rec := getRec(t, h, url, map[string]string{"If-None-Match": et0}); rec.Code != 200 {
		t.Errorf("stale tag revalidated: %d", rec.Code)
	}
	if rec := getRec(t, h, url, map[string]string{"If-None-Match": et1}); rec.Code != http.StatusNotModified {
		t.Errorf("fresh tag did not revalidate: %d", rec.Code)
	}
	// A drop-only write (stale observation) must NOT advance the epoch
	// or move the tag: epochs track applied changes, not traffic.
	if code, _ := post(t, h, "/v1/ingest?sync=1", `[{"id":"w1","t":5,"x":0,"y":0}]`); code != http.StatusAccepted {
		t.Fatalf("stale-obs ingest: %d", code)
	}
	settled := getRec(t, h, url, nil)
	if settled.Header().Get("X-MO-Epoch") != epoch1 || settled.Header().Get("ETag") != et1 {
		t.Errorf("drop-only flush moved the epoch: %s -> %s", epoch1, settled.Header().Get("X-MO-Epoch"))
	}
}

// TestConcurrentIngestAndCachedReads is the -race satellite: writers
// POST /v1/ingest (some synced) while readers hammer one cached window
// query. Every reader must observe a monotonically consistent pair —
// the body it gets must match the epoch header's promise (total never
// exceeds what the final epoch holds, never decreases below what a
// previously observed epoch held).
func TestConcurrentIngestAndCachedReads(t *testing.T) {
	s, p := liveServer(t, ingest.Config{FlushSize: 4, MaxAge: time.Hour})
	h := s.Handler()
	url := "/v1/window?x1=0&y1=0&x2=10000&y2=10000&t1=0&t2=10000"

	const writers, readers, writes, reads = 2, 4, 25, 60
	var wg sync.WaitGroup
	var maxSeen atomic.Int64
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				id := fmt.Sprintf("c%d_%d", wr, i)
				syncArg := ""
				if i%5 == 0 {
					syncArg = "?sync=1"
				}
				body := fmt.Sprintf(`[{"id":%q,"t":0,"x":%d,"y":%d},{"id":%q,"t":10,"x":%d,"y":%d}]`,
					id, i, wr, id, i+1, wr)
				code, resp := post(t, h, "/v1/ingest"+syncArg, body)
				if code != http.StatusAccepted {
					t.Errorf("ingest %s: %d %v", id, code, resp)
					return
				}
			}
		}(wr)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			var lastTotal int64
			for i := 0; i < reads; i++ {
				rec := getRec(t, h, url, nil)
				if rec.Code != 200 {
					t.Errorf("read: %d %s", rec.Code, rec.Body.String())
					return
				}
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("read body: %v", err)
					return
				}
				total := int64(body["total"].(float64))
				var epoch uint64
				fmt.Sscan(rec.Header().Get("X-MO-Epoch"), &epoch)
				// Within one reader, epochs and totals never go backward:
				// the epoch pointer is monotonic and epochs only grow.
				if epoch < lastEpoch {
					t.Errorf("epoch went backward: %d after %d", epoch, lastEpoch)
					return
				}
				if epoch == lastEpoch && total != lastTotal && lastEpoch != 0 {
					t.Errorf("two totals (%d, %d) inside epoch %d", lastTotal, total, epoch)
					return
				}
				if total < lastTotal {
					t.Errorf("total shrank: %d after %d", total, lastTotal)
					return
				}
				lastEpoch, lastTotal = epoch, total
				maxSeen.Store(max(maxSeen.Load(), total))
			}
		}()
	}
	wg.Wait()

	// After a final sync-flush, the epoch view holds every object.
	p.Flush()
	rec := getRec(t, h, url, nil)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if got := int64(body["total"].(float64)); got != writers*writes {
		t.Fatalf("final total = %d, want %d", got, writers*writes)
	}
	if maxSeen.Load() > writers*writes {
		t.Fatalf("a reader saw %d objects, more than were ever written", maxSeen.Load())
	}
}

// TestCacheDisabled: CacheBytes < 0 turns storage off; every read is a
// miss but correctness (and ETags) are unchanged.
func TestCacheDisabled(t *testing.T) {
	_, ids, objects := testObjects()
	s, err := New(Config{ObjectIDs: ids, Objects: objects, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	first := getRec(t, h, testWindowURL, nil)
	second := getRec(t, h, testWindowURL, nil)
	if second.Header().Get("X-MO-Cache") != "miss" {
		t.Errorf("disabled cache reported %q", second.Header().Get("X-MO-Cache"))
	}
	if first.Header().Get("ETag") == "" || first.Header().Get("ETag") != second.Header().Get("ETag") {
		t.Error("ETags must not depend on the cache")
	}
	if rec := getRec(t, h, testWindowURL, map[string]string{"If-None-Match": first.Header().Get("ETag")}); rec.Code != http.StatusNotModified {
		t.Errorf("304 must work without a cache: %d", rec.Code)
	}
}

// TestMetricsExposeCacheAndEpoch: /v1/metrics carries the cache
// counters and the epoch gauge after traffic.
func TestMetricsExposeCacheAndEpoch(t *testing.T) {
	s, _ := liveServer(t, ingest.Config{FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	if code, _ := post(t, h, "/v1/ingest?sync=1", `[{"id":"m1","t":0,"x":1,"y":1},{"id":"m1","t":5,"x":2,"y":1}]`); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	getRec(t, h, testWindowURL, nil)
	getRec(t, h, testWindowURL, nil)
	_, body := get(t, h, "/v1/metrics")
	cacheStats, ok := body["cache"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing cache section: %v", body)
	}
	if cacheStats["hits"].(float64) < 1 || cacheStats["misses"].(float64) < 1 {
		t.Errorf("cache counters = %v", cacheStats)
	}
	if cacheStats["bytes"].(float64) <= 0 || cacheStats["entries"].(float64) <= 0 {
		t.Errorf("cache gauges = %v", cacheStats)
	}
	epochStats, ok := body["epoch"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing epoch section: %v", body)
	}
	if epochStats["seq"].(float64) < 1 || epochStats["publishes"].(float64) < 1 {
		t.Errorf("epoch stats = %v", epochStats)
	}
}

// mapCache is a ResultCache adapter other than cache.Memory, one that
// counts nothing itself.
type mapCache struct {
	mu sync.Mutex
	m  map[cache.Key][]byte
}

func (c *mapCache) Get(k cache.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *mapCache) Put(k cache.Key, v []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// TestMetricsCountAnyCacheAdapter: behind an external adapter, a
// repeated read still moves /v1/metrics' cache hits and misses.
func TestMetricsCountAnyCacheAdapter(t *testing.T) {
	_, ids, objects := testObjects()
	s, err := New(Config{ObjectIDs: ids, Objects: objects, Cache: &mapCache{m: map[cache.Key][]byte{}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	getRec(t, h, testWindowURL, nil)
	if got := getRec(t, h, testWindowURL, nil).Header().Get("X-MO-Cache"); got != "hit" {
		t.Fatalf("repeat read X-MO-Cache = %q, want hit", got)
	}
	_, body := get(t, h, "/v1/metrics")
	cacheStats, ok := body["cache"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing cache section: %v", body)
	}
	if cacheStats["hits"] != 1.0 || cacheStats["misses"] != 1.0 {
		t.Errorf("cache hits, misses = %v, %v, want 1, 1", cacheStats["hits"], cacheStats["misses"])
	}
}
