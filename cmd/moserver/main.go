// moserver serves a generated moving objects database over HTTP with
// the v1 API:
//
//	GET /v1/objects?limit=&offset=            tracked objects (paginated)
//	GET /v1/atinstant?t=120                   positions at an instant
//	GET /v1/window?x1=&y1=&x2=&y2=&t1=&t2=    indexed window query (paginated)
//	GET /v1/query?q=SELECT+...&timeout_ms=    the Section 2 SQL dialect
//	GET /v1/metrics                           request/operator metrics
//	GET /v1/healthz                           liveness
//	POST /v1/ingest                           live observations (with -ingest)
//
// Read routes answer from immutable epoch snapshots behind a result
// cache keyed on (route, canonical query, epoch): responses carry a
// strong ETag and X-MO-Epoch, If-None-Match revalidates to 304, and
// -cache-bytes sizes the cache (negative disables it). Without -ingest
// the flights are frozen into epoch 0; with it the server runs the live
// trajectory ingestion pipeline: POST /v1/ingest admits observation
// batches (202 acknowledged, 429 under backpressure), acknowledged
// batches are write-ahead logged and wait in one pending run in log
// order, and every drain of that run (on -ingest-flush-size,
// -ingest-flush-age or ?sync=1) applies it in that order and publishes
// the next epoch. The process shuts down gracefully on SIGINT/SIGTERM.
//
// Example:
//
//	moserver -addr :8080 &
//	curl 'localhost:8080/v1/query?q=SELECT+airline,id+FROM+planes+LIMIT+3'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/fault"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	n := flag.Int("n", 50, "number of flights")
	storms := flag.Int("storms", 2, "number of storms")
	seed := flag.Int64("seed", 2000, "workload seed")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "default per-request evaluation deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "upper bound for ?timeout_ms overrides")
	readTimeout := flag.Duration("read-timeout", 5*time.Second, "HTTP read timeout")
	writeTimeout := flag.Duration("write-timeout", 65*time.Second, "HTTP write timeout (must exceed max-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "HTTP keep-alive idle timeout")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain deadline")
	maxQueryLen := flag.Int("max-query-len", 8192, "maximum ?q= length in bytes")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body in bytes")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache budget in bytes (0 = 32 MiB default, negative disables)")
	liveIngest := flag.Bool("ingest", false, "enable the live ingestion pipeline (POST /v1/ingest)")
	flushSize := flag.Int("ingest-flush-size", 32, "a drain runs when any object has this many observations pending")
	flushAge := flag.Duration("ingest-flush-age", 100*time.Millisecond, "maximum pending delay before a drain")
	maxQueued := flag.Int("ingest-max-queued", 65536, "queued observations before backpressure (429)")
	ckptPages := flag.Int("ingest-checkpoint-pages", 256, "WAL pages between checkpoints (-1 disables)")
	retries := flag.Int("ingest-retries", 4, "WAL append attempts before a batch is refused as a dead letter")
	degradedAfter := flag.Int("ingest-degraded-after", 3, "consecutive failed batches before degraded mode (503)")
	probeEvery := flag.Duration("ingest-probe-interval", time.Second, "store probe interval while degraded")
	sseHeartbeat := flag.Duration("sse-heartbeat", 15*time.Second, "SSE event-stream keepalive interval")
	liveBuffer := flag.Int("live-buffer", 256, "per-subscriber event buffer (oldest events drop when full)")
	failpoints := flag.String("failpoints", "", "fault injection spec, e.g. 'wal.put=error:3', or 'list' to print the site catalog")
	flag.Parse()

	logger := log.New(os.Stderr, "moserver ", log.LstdFlags)

	if *failpoints == "list" {
		for _, site := range fault.Sites() {
			fmt.Printf("%-14s [%s]  %s\n", site.Name, site.Layer, site.Desc)
		}
		return
	}

	g := workload.New(*seed)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(*n, 200) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	stormRel := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	names := []string{"Klaus", "Lothar", "Kyrill", "Xynthia"}
	for i := 0; i < *storms; i++ {
		stormRel.MustInsert(db.Tuple{names[i%len(names)], g.Storm(0, 40, 10, 6)})
	}

	// One shared registry so /v1/metrics carries both request and ingest
	// statistics.
	metrics := obs.New(0)
	cfg := server.Config{
		Catalog:            db.Catalog{"planes": planes, "storms": stormRel},
		QueryTimeout:       *queryTimeout,
		MaxTimeout:         *maxTimeout,
		MaxQueryLen:        *maxQueryLen,
		MaxBodyBytes:       *maxBody,
		SlowQueryThreshold: *slowQuery,
		Logger:             logger,
		Metrics:            metrics,
		CacheBytes:         *cacheBytes,
	}
	var pipe *ingest.Pipeline
	var reg *live.Registry
	if *liveIngest {
		walIO, err := buildWALMedium(*failpoints, *seed, metrics, logger)
		if err != nil {
			logger.Fatal(err)
		}
		// The standing-query registry rides the epoch publish hook: every
		// flush that advances the epoch notifies it, and subscribers get
		// edge-triggered enter/leave events over SSE.
		reg = live.NewRegistry(live.Config{BufferCap: *liveBuffer, Metrics: metrics})
		pipe, err = ingest.Open(ingest.Config{
			SeedIDs:           ids,
			Seeds:             objects,
			FlushSize:         *flushSize,
			MaxAge:            *flushAge,
			MaxQueued:         *maxQueued,
			LogIO:             walIO,
			CheckpointPages:   *ckptPages,
			RetryAttempts:     *retries,
			DegradedThreshold: *degradedAfter,
			ProbeInterval:     *probeEvery,
			Metrics:           metrics,
			OnPublish:         reg.Notify,
		})
		if err != nil {
			logger.Fatal(err)
		}
		cfg.Ingest = pipe
		cfg.Live = reg
		cfg.SSEHeartbeat = *sseHeartbeat
	} else {
		if *failpoints != "" {
			logger.Fatal("-failpoints requires -ingest")
		}
		// The flights have one owner: the pipeline's seeds above, or the
		// read-only server's frozen epoch 0 here.
		cfg.ObjectIDs, cfg.Objects = ids, objects
	}
	s, err := server.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ErrorLog:          logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		mode := "read-only"
		if *liveIngest {
			mode = "live ingest (POST /v1/ingest)"
		}
		fmt.Printf("moving objects DB: %d flights, %d storms, %s\nlistening on http://%s (v1 API; metrics at /v1/metrics)\n", *n, *storms, mode, *addr)
		done <- srv.ListenAndServe()
	}()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("signal received; draining for up to %v", *shutdownTimeout)
		if reg != nil {
			// End every SSE stream first — Shutdown waits for in-flight
			// handlers, and event streams only return when their
			// subscription closes (or the client hangs up).
			reg.Close()
		}
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}
	if reg != nil {
		reg.Close()
	}
	if pipe != nil {
		// After the HTTP drain no new batches can arrive; Close drains
		// every pending observation into the store so acknowledged
		// writes are applied, not just logged, before the process exits.
		pipe.Close()
		st := pipe.Stats()
		logger.Printf("ingest pipeline drained: %d observations applied, wal seq %d", st.Applied, st.WALSeq)
	}
}
