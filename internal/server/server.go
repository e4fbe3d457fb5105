// Package server exposes a moving objects database over HTTP — the
// "data blade in a service" packaging a downstream user would deploy:
// SQL queries against the catalog, atinstant snapshots of tracked
// objects, and indexed spatio-temporal window queries.
//
// The v1 API surface is versioned under /v1/, every query runs under a
// deadline that the evaluator observes, errors share one JSON envelope,
// list responses paginate, and an observability registry (internal/obs)
// counts requests, latencies, per-operator timings and slow queries,
// served at /v1/metrics.
//
// There is one read path: every read handler pins an ingest.Epoch and
// answers from it. With a live ingestion pipeline configured that is
// the pipeline's current epoch, and POST /v1/ingest accepts observation
// batches (202 on enqueue, 429 under backpressure) whose flushes
// advance it; without one the server pins a frozen epoch 0 over
// Config.Objects for its whole life.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"movingdb/internal/cache"
	"movingdb/internal/db"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/temporal"
)

// Config assembles a Server. The zero value of every tuning field gets
// a sensible default; only Catalog/ObjectIDs/Objects carry data.
type Config struct {
	// Catalog names the relations /v1/query may reference. A nil
	// catalog serves an empty database.
	Catalog db.Catalog
	// ObjectIDs and Objects are the tracked objects of a read-only
	// server (parallel slices), frozen into epoch 0 by New. A server with
	// a pipeline takes its objects from the pipeline's seeds instead;
	// setting both is an error.
	ObjectIDs []string
	Objects   []moving.MPoint
	// Ingest enables the live write path: POST /v1/ingest feeds the
	// pipeline and the read routes pin its current epoch. Nil serves
	// read-only.
	Ingest *ingest.Pipeline
	// Live is the standing-query registry behind /v1/subscribe and the
	// SSE event streams. Nil disables the subscription routes (503
	// unavailable); wire the same registry into the pipeline's OnPublish
	// hook so events flow.
	Live *live.Registry
	// SSEHeartbeat is the idle-keepalive interval of event streams.
	// Default 15s.
	SSEHeartbeat time.Duration

	// Cache is the result cache behind the read routes. Nil builds the
	// in-memory sharded segmented LRU with CacheBytes budget and the
	// default shard count; supply an adapter to use an external tier.
	Cache cache.ResultCache
	// CacheBytes is the in-memory cache budget when Cache is nil:
	// 0 selects the default (32 MiB), negative disables result caching
	// (misses still coalesce).
	CacheBytes int64

	// QueryTimeout is the default evaluation deadline per request
	// (overridable per request with ?timeout_ms=). Default 10s.
	QueryTimeout time.Duration
	// MaxTimeout caps ?timeout_ms. Default 60s.
	MaxTimeout time.Duration
	// MaxQueryLen bounds the ?q= string. Default 8192 bytes.
	MaxQueryLen int
	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// SlowQueryThreshold is the latency above which a /v1/query request
	// lands in the slow-query log. Default 500ms.
	SlowQueryThreshold time.Duration
	// Logger receives panics and slow queries. Default: discard.
	Logger *log.Logger
	// Metrics is the observability registry; one is created when nil.
	Metrics *obs.Metrics
}

// validate rejects negative tuning values: zero selects a default, and
// no other field gives a negative value a meaning. CacheBytes does:
// negative disables the result cache.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"QueryTimeout", int64(c.QueryTimeout)}, {"MaxTimeout", int64(c.MaxTimeout)}, {"MaxQueryLen", int64(c.MaxQueryLen)},
		{"MaxBodyBytes", c.MaxBodyBytes}, {"SlowQueryThreshold", int64(c.SlowQueryThreshold)}, {"SSEHeartbeat", int64(c.SSEHeartbeat)},
	} {
		if f.v < 0 {
			return fmt.Errorf("server: negative %s (%d)", f.name, f.v)
		}
	}
	return nil
}

// withDefaults fills in the zero-valued tuning fields.
func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		c.Catalog = db.Catalog{}
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxQueryLen == 0 {
		c.MaxQueryLen = 8192
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	}
	if c.SSEHeartbeat == 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Metrics == nil {
		c.Metrics = obs.New(0)
	}
	return c
}

// Server serves a catalog of relations plus the tracked moving point
// objects of the pinned epoch.
type Server struct {
	cfg Config
	// pinEpoch returns the epoch a read evaluates against: the pipeline's
	// current one, or the frozen epoch 0 of a read-only server. Never nil.
	pinEpoch func() *ingest.Epoch
	ingest   *ingest.Pipeline
	live     *live.Registry
	loader   *cache.Loader
	logger   *log.Logger
	metrics  *obs.Metrics
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var pinEpoch func() *ingest.Epoch
	if cfg.Ingest != nil {
		if len(cfg.ObjectIDs) > 0 || len(cfg.Objects) > 0 {
			return nil, errors.New("server: Config sets both Ingest and Objects; seed the pipeline instead")
		}
		pinEpoch = cfg.Ingest.Epoch
	} else {
		frozen, err := ingest.Frozen(cfg.ObjectIDs, cfg.Objects)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		pinEpoch = func() *ingest.Epoch { return frozen }
	}
	rc := cfg.Cache
	if rc == nil && cfg.CacheBytes >= 0 {
		rc = cache.NewMemory(cfg.CacheBytes, 0, cfg.Metrics)
	}
	return &Server{
		cfg:      cfg,
		pinEpoch: pinEpoch,
		ingest:   cfg.Ingest,
		live:     cfg.Live,
		loader:   cache.NewLoader(rc, cfg.Metrics),
		logger:   cfg.Logger,
		metrics:  cfg.Metrics,
	}, nil
}

// Metrics returns the server's observability registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Handler returns the HTTP mux with the v1 routes and an enveloped 404
// for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/v1/query", s.handleQuery},
		{"GET", "/v1/atinstant", s.handleAtInstant},
		{"GET", "/v1/window", s.handleWindow},
		{"GET", "/v1/objects", s.handleObjects},
		{"GET", "/v1/metrics", s.handleMetrics},
		{"GET", "/v1/healthz", s.handleHealthz},
		{"POST", "/v1/ingest", s.handleIngest},
		{"GET", "/v1/nearby", s.handleNearby},
		{"POST", "/v1/subscribe", s.handleSubscribe},
		{"GET", "/v1/subscribe/{id}", s.handleSubscription},
		{"DELETE", "/v1/subscribe/{id}", s.handleUnsubscribe},
		{"GET", "/v1/subscribe/{id}/events", s.handleEvents},
	} {
		mux.Handle(rt.method+" "+rt.path, s.instrument(rt.path, rt.h))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// evalContext derives the evaluation context: the request context
// (canceled when the client disconnects) plus the decoded per-request
// deadline, with the obs registry attached for operator timings.
func (s *Server) evalContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(obs.NewContext(r.Context(), s.metrics), timeout)
}

// pageBounds clips [offset, offset+limit) to n elements.
func pageBounds(n, limit, offset int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	hi = offset + limit
	if hi > n {
		hi = n
	}
	return offset, hi
}

// handleQuery executes ?q=<SELECT ...> under the request deadline and
// returns columns and rows. Only scalar result columns are rendered;
// moving/spatial values are summarised. Results are cached under the
// canonical SQL and the pinned epoch; evaluation time travels in the
// X-MO-Elapsed response header (milliseconds, only on the evaluating
// request) instead of the body, so cached bytes are stable and the
// route carries the same strong ETag as the other read routes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, derr := s.decodeQuery(r)
	if derr != nil {
		writeDecodeError(w, derr)
		return
	}
	ep := s.pinEpoch()
	snap := db.Snapshot{Catalog: s.cfg.Catalog}
	s.serveCached(w, r, req.key(ep.Seq()), func(scratch []byte) ([]byte, error) {
		ctx, cancel := s.evalContext(r, req.Timeout)
		defer cancel()
		start := time.Now()
		res, err := snap.QueryStatement(ctx, req.Stmt)
		elapsed := time.Since(start)
		// The entry carries the status the client is about to receive.
		status := http.StatusOK
		if err != nil {
			status, _ = evalStatus(err)
		}
		timedOut := status == http.StatusRequestTimeout
		if timedOut || elapsed >= s.cfg.SlowQueryThreshold {
			entry := obs.SlowQuery{
				Route:    "/v1/query",
				Query:    truncate(req.Raw, 200),
				Millis:   float64(elapsed.Nanoseconds()) / 1e6,
				Status:   status,
				UnixMS:   time.Now().UnixMilli(),
				TimedOut: timedOut,
			}
			s.metrics.RecordSlowQuery(entry)
			s.logger.Printf("server: slow query (%.1fms, timed_out=%v): %s", entry.Millis, timedOut, entry.Query)
		}
		if err != nil {
			return nil, err
		}
		// Headers may still be set here: serveCached writes the response
		// only after this closure returns. Coalesced and cache-hit
		// requests simply lack the header — elapsed time describes an
		// evaluation, and they did not run one.
		w.Header().Set("X-MO-Elapsed", fmt.Sprintf("%.3f", float64(elapsed.Nanoseconds())/1e6))
		cols := make([]string, len(res.Schema))
		for i, c := range res.Schema {
			cols[i] = fmt.Sprintf("%s:%s", c.Name, c.Type)
		}
		rows := make([][]any, 0, res.Len())
		for _, t := range res.Scan() {
			row := make([]any, len(t))
			for i, v := range t {
				row[i] = renderValue(v)
			}
			rows = append(rows, row)
		}
		// A cold route: encoding/json renders it, with the newline the
		// hand-written bodies end in.
		b, err := json.Marshal(map[string]any{"columns": cols, "rows": rows})
		return append(append(scratch, b...), '\n'), err
	})
}

// truncate cuts s to at most n bytes, on a rune boundary so that the
// result is valid UTF-8 whenever s is, and marks the cut.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

func renderValue(v any) any {
	switch x := v.(type) {
	case string, float64, bool, int64:
		return x
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprintf("%v", v)
}

// handleAtInstant returns the position of every tracked object defined
// at ?t=, evaluated against the pinned epoch and cached under it.
func (s *Server) handleAtInstant(w http.ResponseWriter, r *http.Request) {
	req, derr := s.decodeAtInstant(r)
	if derr != nil {
		writeDecodeError(w, derr)
		return
	}
	ep := s.pinEpoch()
	s.serveCached(w, r, req.key(ep.Seq()), func(scratch []byte) ([]byte, error) {
		pp := positions.Get().(*[]ingest.Position)
		*pp = ep.AppendAtInstant((*pp)[:0], temporal.Instant(req.T))
		body, err := appendAtInstantBody(scratch, req.T, *pp)
		positions.Put(pp)
		return body, err
	})
}

// handleWindow answers ?x1=&y1=&x2=&y2=&t1=&t2= with the ids of objects
// inside the window during the interval: the epoch's immutable index
// snapshot (the ladder's rungs and the extra rung) with exact
// refinement, so it sees
// every write flushed before the pin. Results paginate with
// ?limit=&offset=; the envelope carries the total match count.
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	req, derr := s.decodeWindow(r)
	if derr != nil {
		writeDecodeError(w, derr)
		return
	}
	ep := s.pinEpoch()
	s.serveCached(w, r, req.key(ep.Seq()), func(scratch []byte) ([]byte, error) {
		all := ep.Window(req.Rect, temporal.Closed(temporal.Instant(req.T1), temporal.Instant(req.T2)))
		lo, hi := pageBounds(len(all), req.Page.Limit, req.Page.Offset)
		return appendWindowBody(scratch, len(all), req.Page, all[lo:hi])
	})
}

// handleObjects lists the tracked objects with their definition times
// and unit counts, paginated with ?limit=&offset=.
func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	req, derr := s.decodeObjects(r)
	if derr != nil {
		writeDecodeError(w, derr)
		return
	}
	ep := s.pinEpoch()
	s.serveCached(w, r, req.key(ep.Seq()), func(scratch []byte) ([]byte, error) {
		sums := ep.Summaries()
		lo, hi := pageBounds(len(sums), req.Page.Limit, req.Page.Offset)
		return appendObjectsBody(scratch, len(sums), req.Page, sums[lo:hi])
	})
}

// handleMetrics serves the observability snapshot (expvar-style JSON).
// Never cached — it is the cache's own scoreboard.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("X-MO-Epoch", strconv.FormatUint(s.pinEpoch().Seq(), 10))
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleHealthz reports liveness and the sizes of the served data; with
// a live pipeline it also carries the pipeline counters and the health
// state machine. A degraded store (writes failing past the retry
// budget) reports status "degraded" with its cause — reads still work,
// so the process stays "live" for orchestrators that only check the
// HTTP status, while the body tells operators what is wrong.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ep := s.pinEpoch()
	w.Header().Set("X-MO-Epoch", strconv.FormatUint(ep.Seq(), 10))
	body := map[string]any{
		"status":    "ok",
		"objects":   ep.Objects(),
		"relations": len(s.cfg.Catalog),
	}
	if s.ingest != nil {
		body["ingest"] = s.ingest.Stats()
		h := s.ingest.Health()
		body["health"] = h
		if h.Degraded {
			body["status"] = "degraded"
			body["cause"] = h.Cause
		}
	}
	writeJSON(w, http.StatusOK, body)
}
