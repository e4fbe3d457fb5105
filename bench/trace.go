package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"movingdb/internal/cache"
	"movingdb/internal/ingest"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// Tracing from outside. No file of the program changes for this
// benchmark, so spans are recorded around the calls into each layer
// through the ports the program already has: the page-I/O seam under the
// write-ahead log, the epoch publish hook, the result-cache port and the
// http.Handler. A nil *tracer records nothing and installs no wrapper:
// end-to-end metrics always come from a run without one.

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a client request); Req numbers the client
// request it belongs to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// maxSpans bounds the spans kept in memory; the busy totals behind the
// per-layer metrics cover every call regardless.
const maxSpans = 200_000

// tracer collects spans and per-name busy totals. One closed-loop
// client means at most one request is in flight, so a wrapper can stamp
// the current request and parent without ambiguity; the mutex orders
// the server goroutine's writes with the client's reads.
type tracer struct {
	t0 time.Time // moguard: immutable

	mu      sync.Mutex
	spans   []span                   // moguard: guarded by mu
	busy    map[string]time.Duration // moguard: guarded by mu
	calls   map[string]int           // moguard: guarded by mu
	req     int                      // moguard: guarded by mu
	open    []int                    // moguard: guarded by mu // stack of open span indices (-1 once past maxSpans)
	dropped int                      // moguard: guarded by mu
	handler time.Duration            // moguard: guarded by mu // duration of the last handler span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), busy: map[string]time.Duration{}, calls: map[string]int{}}
}

// nextRequest starts a new client request.
func (t *tracer) nextRequest() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id := -1
	if len(t.spans) < maxSpans {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), Parent: parent, Req: t.req})
	} else {
		t.dropped++
	}
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.open = t.open[:len(t.open)-1]
		if id >= 0 {
			t.spans[id].EndNS = end.Sub(t.t0).Nanoseconds()
		}
		t.busy[name] += end.Sub(start)
		t.calls[name]++
		t.mu.Unlock()
	}
}

// replay runs f as a span of request req and returns the time it took:
// the layered replay feeds a lower layer the input of that request again.
func (t *tracer) replay(name string, req int, f func()) float64 {
	t.mu.Lock()
	t.req = req
	t.mu.Unlock()
	start := time.Now()
	end := t.begin("replay:" + name)
	f()
	end()
	return float64(time.Since(start))
}

// takeHandler returns the duration of the handler span the request just
// answered caused.
func (t *tracer) takeHandler() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.handler
	t.handler = 0
	return d
}

// busyS is the total time spent in spans of the given names, in seconds.
func (t *tracer) busyS(names ...string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, n := range names {
		d += t.busy[n]
	}
	return d.Seconds()
}

func (t *tracer) count(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[name]
}

// layerRow is one line of the decomposition written beside the spans:
// a layer's total time, the part its children cover, and what is left.
type layerRow struct {
	Layer  string  `json:"layer"`
	Parent string  `json:"parent,omitempty"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Source string  `json:"source"`
}

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Dropped  int        `json:"spans_dropped"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}

// write stores the spans and the layer table as out/trace-<workload>.json
// under dir.
func (t *tracer) write(dir, workload string, seed int64, layers []layerRow) (string, error) {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Layers: layers, Spans: t.spans}
	data, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- port wrappers ---

// tracedHandler records one span per request, named after the route.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		end := t.begin("server:" + r.URL.Path)
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		end()
		t.mu.Lock()
		t.handler = d
		t.mu.Unlock()
	})
}

// pageStoreIO adapts the infallible in-memory page store to the page-I/O
// contract of the write-ahead log, as the pipeline's own adapter does.
type pageStoreIO struct{ ps *storage.PageStore }

func (a pageStoreIO) Put(data []byte) (storage.LOBRef, error) { return a.ps.Put(data), nil }
func (a pageStoreIO) Get(ref storage.LOBRef) ([]byte, error)  { return a.ps.Get(ref) }
func (a pageStoreIO) NumPages() int                           { return a.ps.NumPages() }
func (a pageStoreIO) Truncate(n int)                          { a.ps.Truncate(n) }
func (a pageStoreIO) Compact(n int) error                     { a.ps.Compact(n); return nil }

// tracedIO times the calls the log makes into its medium and counts
// the bytes it writes, which over the user bytes is write amplification.
type tracedIO struct {
	ingest.PageIO         // moguard: immutable
	t             *tracer // moguard: immutable

	mu       sync.Mutex
	putBytes int64 // moguard: guarded by mu
}

func (io *tracedIO) Put(data []byte) (storage.LOBRef, error) {
	defer io.t.begin("storage:put")()
	io.mu.Lock()
	io.putBytes += int64(len(data))
	io.mu.Unlock()
	return io.PageIO.Put(data)
}

func (io *tracedIO) Compact(n int) error {
	defer io.t.begin("storage:compact")()
	return io.PageIO.Compact(n)
}

func (io *tracedIO) bytesPut() int64 {
	io.mu.Lock()
	defer io.mu.Unlock()
	return io.putBytes
}

// tracedCache times the result-cache port.
type tracedCache struct {
	cache.ResultCache
	t *tracer
}

// tracedCacheFor wraps the cache the server would build for itself;
// without a tracer it returns nil and the server builds its own.
func tracedCacheFor(t *tracer, m *obs.Metrics) cache.ResultCache {
	if t == nil {
		return nil
	}
	return tracedCache{ResultCache: cache.NewMemory(0, 0, m), t: t}
}

func (c tracedCache) Get(k cache.Key) ([]byte, bool) {
	defer c.t.begin("cache:get")()
	return c.ResultCache.Get(k)
}

func (c tracedCache) Put(k cache.Key, v []byte) {
	defer c.t.begin("cache:put")()
	c.ResultCache.Put(k, v)
}

// tracedPublish times the epoch publish hook (the live registry's
// enqueue, which runs on the flush path).
func tracedPublish(t *tracer, next func(*ingest.Epoch, []ingest.DirtyObject)) func(*ingest.Epoch, []ingest.DirtyObject) {
	if t == nil {
		return next
	}
	return func(ep *ingest.Epoch, dirty []ingest.DirtyObject) {
		defer t.begin("live:notify")()
		next(ep, dirty)
	}
}
