// Serving: stand up the v1 HTTP API over a generated catalog and walk
// its surface — a paginated object listing, a SQL query under a
// deadline, a deliberately timed-out query showing the 408 error
// envelope, live observation ingestion with read-your-writes through
// /v1/window, and the observability snapshot — then shut down
// gracefully.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/workload"
)

func getJSON(base, path string) (int, map[string]any) {
	resp, err := http.Get(base + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		log.Fatalf("bad json from %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func postJSON(base, path, payload string) (int, map[string]any) {
	resp, err := http.Post(base+path, "application/json", strings.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		log.Fatalf("bad json from %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func main() {
	// A catalog of flights and storms, as in the paper's Section 2
	// scenario, plus the flights as tracked objects for the index.
	g := workload.New(42)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(40, 200) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	storms := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	for i := 0; i < 60; i++ {
		storms.MustInsert(db.Tuple{fmt.Sprintf("S%02d", i), g.Storm(0, 60, 10, 5)})
	}

	// A live ingestion pipeline seeded with the flights: the tracked
	// objects stay queryable, and POST /v1/ingest can extend them or add
	// new objects. Sharing one metrics registry puts ingest counters in
	// the same /v1/metrics snapshot as the request stats.
	metrics := obs.New(0)
	pipe, err := ingest.Open(ingest.Config{
		SeedIDs: ids,
		Seeds:   objects,
		Metrics: metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	// The options struct replaces the old positional constructor: data,
	// deadlines, limits and logging in one place.
	s, err := server.New(server.Config{
		Catalog:            db.Catalog{"planes": planes, "storms": storms},
		Ingest:             pipe,
		Metrics:            metrics,
		QueryTimeout:       2 * time.Second,
		SlowQueryThreshold: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadTimeout: 5 * time.Second, WriteTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Paginated objects listing.
	_, body := getJSON(base, "/v1/objects?limit=3")
	fmt.Printf("objects: total=%v, first page of %d\n", body["total"], len(body["objects"].([]any)))

	// A SQL query under the configured deadline.
	_, body = getJSON(base, "/v1/query?q=SELECT+airline,+travelled(flight)+AS+d+FROM+planes+ORDER+BY+d+DESC+LIMIT+3")
	for _, row := range body["rows"].([]any) {
		r := row.([]any)
		fmt.Printf("query row: %-12v travelled %.1f\n", r[0], r[1])
	}

	// The same catalog with a 5ms budget: the evaluator observes the
	// deadline inside the plane×storm inside() walk and the server
	// answers with the 408 envelope. (The storms are crossed in twice:
	// the filtered two-way join would beat the deadline.)
	code, body := getJSON(base, "/v1/query?timeout_ms=5&q=SELECT+s.name+FROM+planes,+storms+s,+storms+r+WHERE+sometimes(inside(flight,+s.extent))")
	env := body["error"].(map[string]any)
	fmt.Printf("timed-out query: HTTP %d, code=%v\n", code, env["code"])

	// Live ingestion: stream observations for six new vehicles through
	// POST /v1/ingest. ?sync=1 flushes before the ack, so the reads
	// below see every acknowledged observation (read-your-writes).
	stream := g.ObservationStream("live", 6, 8, 0, 5, 4)
	type wireObs struct {
		ID string  `json:"id"`
		T  float64 `json:"t"`
		X  float64 `json:"x"`
		Y  float64 `json:"y"`
	}
	batch := make([]wireObs, len(stream))
	var last wireObs // live0's latest fix, for the window probe below
	for i, o := range stream {
		batch[i] = wireObs{ID: o.ID, T: float64(o.T), X: o.P.X, Y: o.P.Y}
		if o.ID == "live0" {
			last = batch[i]
		}
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		log.Fatal(err)
	}
	code, body = postJSON(base, "/v1/ingest?sync=1", string(payload))
	fmt.Printf("ingest: HTTP %d, accepted=%v wal_seq=%v\n", code, body["accepted"], body["seq"])

	// Read-your-writes: a window query around live0's last fix finds it
	// the instant the ack returns — the index's tail covers the fresh
	// units before any rung is built.
	_, body = getJSON(base, fmt.Sprintf("/v1/window?x1=%g&y1=%g&x2=%g&y2=%g&t1=%g&t2=%g",
		last.X-1, last.Y-1, last.X+1, last.Y+1, last.T-1, last.T))
	fmt.Printf("window around live0's last fix: total=%v ids=%v\n", body["total"], body["ids"])

	// The listing now includes the six live objects next to the seeds.
	_, body = getJSON(base, "/v1/objects?limit=3")
	fmt.Printf("objects after ingest: total=%v\n", body["total"])

	// The observability snapshot counts all of the above.
	_, body = getJSON(base, "/v1/metrics")
	reqs := body["requests"].(map[string]any)
	q := reqs["/v1/query"].(map[string]any)
	fmt.Printf("metrics: /v1/query count=%v timeouts=%v\n", q["count"], q["timeouts"])

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained; bye")
}
