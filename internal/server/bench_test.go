package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"movingdb/internal/db"
	"movingdb/internal/live"
	"movingdb/internal/moving"
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
