package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// The middleware-overhead benchmarks compare the bare query handler
// against the instrumented route (mux dispatch + body limit + panic
// recovery + metrics). Run with:
//
//	go test ./internal/server -bench BenchmarkQuery -benchmem
//
// The instrumented path must stay within a few percent of the bare
// handler; the dominant cost is query evaluation itself.

func benchServer(b *testing.B) *Server {
	b.Helper()
	g := workload.New(2000)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(30, 150) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	s, err := New(Config{Catalog: db.Catalog{"planes": planes}, ObjectIDs: ids, Objects: objects})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

const benchQueryURL = "/v1/query?q=SELECT+airline,+id+FROM+planes+WHERE+airline+=+'Lufthansa'+LIMIT+5"

func BenchmarkQueryBareHandler(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", benchQueryURL, nil)
		rec := httptest.NewRecorder()
		s.handleQuery(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code = %d", rec.Code)
		}
	}
}

func BenchmarkQueryInstrumented(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", benchQueryURL, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code = %d", rec.Code)
		}
	}
}

// BenchmarkSSEEventFrames measures rendering one Take batch of
// subscription events as SSE frames — the per-event cost every
// connected stream pays on every epoch publish, pinned by an
// allocation budget (TestAllocBudgets).
func BenchmarkSSEEventFrames(b *testing.B) {
	events := make([]live.Event, 8)
	for i := range events {
		events[i] = live.Event{
			Seq: uint64(i + 1), Epoch: 42, Edge: "enter",
			Object: "veh-01234", T: 17.5, X: 123.25, Y: 456.75, PubUnixNS: 1700000000000000000,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = writeEventFrames(io.Discard, buf, events, true)
	}
}

func BenchmarkWindowInstrumented(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/v1/window?x1=0&y1=0&x2=500&y2=500&t1=0&t2=500&limit=10", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code = %d", rec.Code)
		}
	}
}

// reusedRecorder is a ResponseWriter whose header map and body buffer
// survive between requests, so a benchmark loop measures the handler
// and not the recorder (bench/client.go drives query_repeat the same
// way).
type reusedRecorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *reusedRecorder) Header() http.Header         { return r.hdr }
func (r *reusedRecorder) WriteHeader(code int)        { r.code = code }
func (r *reusedRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// benchCacheHit replays one pre-built request against the full handler
// chain (mux, instrumentation, decode, key, cache hit, header writes):
// the whole cost of a result-cache hit.
func benchCacheHit(b *testing.B, url string) {
	h := benchServer(b).Handler()
	req := httptest.NewRequest("GET", url, nil)
	rec := &reusedRecorder{hdr: http.Header{}}
	h.ServeHTTP(rec, req) // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(rec.hdr)
		rec.code = http.StatusOK
		rec.body.Reset()
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK || rec.hdr["X-Mo-Cache"][0] != "hit" {
			b.Fatalf("code = %d, cache = %v", rec.code, rec.hdr["X-Mo-Cache"])
		}
	}
}

func BenchmarkCacheHitWindow(b *testing.B) {
	benchCacheHit(b, "/v1/window?x1=0&y1=0&x2=500&y2=500&t1=0&t2=500&limit=10")
}

func BenchmarkCacheHitAtInstant(b *testing.B) { benchCacheHit(b, "/v1/atinstant?t=75.5") }

func BenchmarkCacheHitNearby(b *testing.B) {
	benchCacheHit(b, "/v1/nearby?x=500&y=500&t=75.5&k=5&radius=400")
}

// BenchmarkIngestDecode570 decodes one fleet_mixed tick: 570
// observations as json.Marshal spells them. The budget is one string per
// observation plus the batch slice.
func BenchmarkIngestDecode570(b *testing.B) {
	batch := make([]ingest.Observation, 570)
	for i := range batch {
		batch[i] = ingest.Observation{ObjectID: fmt.Sprintf("veh%04d", i), T: 17, X: 123.25 + float64(i)/7, Y: 4567.125 - float64(i)/3}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := decodeObservations(body, 10000)
		if err != nil || len(got) != len(batch) {
			b.Fatalf("decoded %d observations, err %v", len(got), err)
		}
	}
}

// BenchmarkEncodeAtInstant1000 renders a 1000-position /v1/atinstant
// body the way a cache miss does: appended into a reused buffer, then
// cloned for the cache.
func BenchmarkEncodeAtInstant1000(b *testing.B) {
	ps := make([]ingest.Position, 1000)
	for i := range ps {
		ps[i] = ingest.Position{ID: fmt.Sprintf("veh%04d", i), X: 123.25 + float64(i)/7, Y: 4567.125 - float64(i)/3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf, exact []byte
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendAtInstantBody(buf[:0], 75.5, ps); err != nil {
			b.Fatal(err)
		}
		exact = bytes.Clone(buf)
	}
	b.SetBytes(int64(len(exact)))
}

// jsonFloatBenchValues are 4 096 coordinates as the hot routes carry
// them: seeded, in the world's [0, 1000) square, all seventeen digits.
func jsonFloatBenchValues() []float64 {
	rng := rand.New(rand.NewSource(4096))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.Float64() * 1000
	}
	return vs
}

// BenchmarkAppendJSONFloat renders the same 4 096 values with the
// Schubfach writer and with strconv's shortest path (what the writer
// replaced; every value is in 'f' range). ns/op is per value.
func BenchmarkAppendJSONFloat(b *testing.B) {
	b.Run("writer", benchAppendJSONFloat)
	b.Run("strconv", func(b *testing.B) {
		vs := jsonFloatBenchValues()
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i%len(vs)], 'f', -1, 64)
		}
	})
}

func benchAppendJSONFloat(b *testing.B) {
	vs := jsonFloatBenchValues()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendJSONFloat(buf[:0], vs[i%len(vs)])
	}
}

// BenchmarkAtInstantBody is the compute of a /v1/atinstant miss on
// query_unique's frozen data (1 000 objects × 60 steps, workload seed
// 20000, ingested one step per batch): the epoch's unit search for every
// object appended into a reused position buffer, then the body appended
// into a reused byte buffer, as handleAtInstant does with its pools.
func BenchmarkAtInstantBody(b *testing.B) {
	b.Run("n=1000", benchAtInstantBody)
}

const frozenSteps = 60

// frozenEpoch is query_unique's data, built once per test binary (the
// allocation budget runs the benchmark body several times).
var frozenEpoch = sync.OnceValues(func() (*ingest.Epoch, error) {
	const objects = 1000
	ws := workload.New(20000).ObservationStream("obj", objects, frozenSteps, 0, 1, 8)
	stream := make([]ingest.Observation, len(ws))
	for i, w := range ws {
		stream[i] = ingest.Observation{ObjectID: w.ID, T: float64(w.T), X: w.P.X, Y: w.P.Y}
	}
	p, err := ingest.Open(ingest.Config{MaxAge: time.Hour, MaxQueued: len(stream) + 1})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	for lo := 0; lo < len(stream); lo += objects {
		if _, err := p.Ingest(stream[lo : lo+objects]); err != nil {
			return nil, err
		}
	}
	p.Flush()
	return p.Epoch(), nil
})

func benchAtInstantBody(b *testing.B) {
	ep, err := frozenEpoch()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ts := make([]float64, 1024)
	for i := range ts {
		ts[i] = rng.Float64() * frozenSteps
	}
	var ps []ingest.Position
	var buf []byte
	body := func(t float64) {
		ps = ep.AppendAtInstant(ps[:0], temporal.Instant(t))
		if buf, err = appendAtInstantBody(buf[:0], t, ps); err != nil {
			b.Fatal(err)
		}
	}
	body(frozenSteps / 2) // grow both buffers, as a warm pool has
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(ts[i%len(ts)])
	}
}

// BenchmarkEncodePagedBodies renders the other three hand-encoded read
// bodies — /v1/window, /v1/objects, /v1/nearby, 100 rows each — into one
// reused buffer: the encoders themselves allocate nothing.
func BenchmarkEncodePagedBodies(b *testing.B) {
	ids := make([]string, 100)
	sums := make([]ingest.ObjectSummary, len(ids))
	near := make([]ingest.NearbyResult, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("veh%04d", i)
		sums[i] = ingest.ObjectSummary{ID: ids[i], Units: i, From: 0.5, To: 17.25 + float64(i)}
		near[i] = ingest.NearbyResult{ID: ids[i], X: 123.25 + float64(i)/7, Y: 4567.125 - float64(i)/3, Dist: float64(i) / 9}
	}
	pg := pageReq{Limit: 100}
	buf := make([]byte, 0, 32<<10) // larger than the three bodies together
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e1, e2, e3 error
		buf, e1 = appendWindowBody(buf[:0], 1000, pg, ids)
		buf, e2 = appendObjectsBody(buf, 1000, pg, sums)
		buf, e3 = appendNearbyBody(buf, nearbyReq{X: 500, Y: 500, T: 75.5, K: 100, Radius: -1}, near)
		if e1 != nil || e2 != nil || e3 != nil {
			b.Fatal(e1, e2, e3)
		}
	}
}
