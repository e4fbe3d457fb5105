package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/fault"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

// The harness loop: assemble the real stack (pipeline, registry,
// server) behind an httptest listener, drive fleets through the HTTP
// ingest route, issue the query mix, and check every response against
// the oracle. Unlike the rest of the package, this file reads the wall
// clock — it paces ticks, waits on delivery barriers and polls for
// goroutine exit — but nothing wall-derived ever reaches the log or the
// verdict.

// maxViolations bounds the violation list; past it only the count grows.
const maxViolations = 32

// simSQL is the fixed catalog query issued every tick; the catalog is
// static, so its body must never change across the whole run.
const simSQL = "SELECT airline, id FROM planes WHERE airline = 'Lufthansa'"

// Result is a completed run: the verdict plus the deterministic event
// log it hashes.
type Result struct {
	Verdict Verdict
	Log     []string
}

// run is the mutable state of one simulation.
type run struct {
	cfg     Config
	ts      *httptest.Server
	client  *http.Client
	oracle  *oracle
	readers []*sseReader

	expectedSeq uint64 // epoch the next read must report
	wasDegraded bool
	inCycle     bool

	queryBaseline []byte

	verdict   Verdict
	log       []string
	extraViol int
}

func (r *run) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *run) violate(format string, args ...any) {
	if len(r.verdict.Violations) < maxViolations {
		v := fmt.Sprintf(format, args...)
		r.verdict.Violations = append(r.verdict.Violations, v)
		r.logf("VIOLATION %s", v)
		return
	}
	r.extraViol++
}

// fmtF renders a float64 so that the server's ParseFloat recovers the
// identical bits.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Run executes one simulation and returns its verdict and log. Setup
// failures (an invalid profile) are errors; invariant breaches are
// violations in the verdict.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	baseGoroutines := runtime.NumGoroutine()

	metrics := obs.New(0)
	in := fault.New(cfg.Seed + 1)
	in.OnTrip(metrics.RecordFaultTrip)
	fault.Arm(in)
	defer fault.Arm(nil)

	reg := live.NewRegistry(live.Config{
		BufferCap: 4096,
		// A queue this deep never overflows at simulator scale, so
		// publishes are never coalesced — the oracle's one-epoch-per-tick
		// accounting depends on that.
		QueueCap: 65536,
		Metrics:  metrics,
	})
	pipe, err := ingest.Open(ingest.Config{
		// The WAL seam is the injection point for wal.* sites; hook sites
		// trip through fault.Arm above.
		LogIO: fault.NewStore(in, "wal", storage.NewPageStore()),
		// One explicit flush per tick: thresholds high enough that neither
		// size nor age ever triggers a flush the oracle did not model.
		FlushSize: 1 << 20,
		MaxAge:    time.Hour,
		MaxQueued: 1 << 20,
		// Checkpoints off: their page I/O hits wal.put outside the tick
		// loop's control.
		CheckpointPages: -1,
		RetryAttempts:   2,
		RetryBase:       200 * time.Microsecond,
		RetryMaxWait:    time.Millisecond,
		// Threshold 2 with an always-due probe: health flips on the second
		// consecutive failed tick and every tick is allowed to probe, so
		// recovery happens on the first tick after the fault clears —
		// deterministic at tick granularity.
		DegradedThreshold: 2,
		ProbeInterval:     time.Nanosecond,
		Metrics:           metrics,
		OnPublish:         reg.Notify,
	})
	if err != nil {
		reg.Close()
		return nil, err
	}

	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	for _, f := range workload.New(cfg.Seed).Flights(8, 100) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
	}
	srv, err := server.New(server.Config{
		Catalog:      db.Catalog{"planes": planes},
		Ingest:       pipe,
		Live:         reg,
		Metrics:      metrics,
		SSEHeartbeat: time.Second,
	})
	if err != nil {
		reg.Close()
		pipe.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())

	r := &run{
		cfg:    cfg,
		ts:     ts,
		client: ts.Client(),
		oracle: newOracle(),
	}
	r.expectedSeq = pipe.Epoch().Seq() // the empty opening epoch
	r.verdict = Verdict{Profile: cfg.Profile.Name, Seed: cfg.Seed, Ticks: cfg.Ticks, Objects: cfg.objects()}
	r.logf("run profile=%s seed=%d ticks=%d objects=%d subs=%d", cfg.Profile.Name, cfg.Seed, cfg.Ticks, cfg.objects(), cfg.Subs)

	fl := newFleet(cfg)
	var wg sync.WaitGroup
	if err := r.subscribeAll(fl.ids, &wg); err != nil {
		reg.Close()
		ts.Close()
		pipe.Close()
		return nil, err
	}

	qg := workload.New(cfg.Seed + 2)
	sched := cfg.Profile.schedule(cfg.Ticks)
	armed := map[string]*fault.Spec{}

	for i := 1; i <= cfg.Ticks; i++ {
		tickStart := time.Now()
		for _, flip := range sched[i] {
			if flip.Spec == nil {
				in.Clear(flip.Site)
				delete(armed, flip.Site)
				r.logf("tick %d clear %s", i, flip.Site)
			} else {
				in.Set(flip.Site, *flip.Spec)
				armed[flip.Site] = flip.Spec
				r.logf("tick %d arm %s mode=%s times=%d", i, flip.Site, flip.Spec.Mode, flip.Spec.Times)
			}
		}
		t := float64(i) * cfg.TickDT
		status := r.ingestTick(i, fl.step(t), armed)

		r.checkHealthz(i)
		for qi, wq := range qg.WindowQueries(cfg.WindowQ, 0, t) {
			r.checkWindow(i, wq, qi == 0)
		}
		for _, qt := range qg.Instants(cfg.InstantQ, 0, t) {
			r.checkAtInstant(i, qt)
		}
		for _, nq := range qg.NearbyQueries(cfg.NearbyQ, 0, t, 5) {
			r.checkNearby(i, nq)
		}
		r.checkSQL(i)
		r.logf("tick %d t=%s status=%d epoch=%d degraded=%v", i, fmtF(t), status, r.expectedSeq, r.oracle.degraded)

		if cfg.Paced {
			if rem := cfg.TickPeriod - time.Since(tickStart); rem > 0 {
				time.Sleep(rem)
			}
		}
	}

	// Fence ticks: with every failpoint cleared, two guaranteed-clean
	// publishes flush any deferred epoch and re-wake the notifier, so
	// everything the oracle expects is queued for delivery before the
	// barrier below.
	in.ClearAll()
	clear(armed)
	for j := 1; j <= 2; j++ {
		i := cfg.Ticks + j
		t := float64(i) * cfg.TickDT
		if status := r.ingestTick(i, fl.step(t), armed); status != http.StatusAccepted {
			r.violate("fence tick %d: status %d, want 202 (no faults are armed)", j, status)
		}
		r.logf("fence %d epoch=%d", j, r.expectedSeq)
	}

	tolerant := cfg.Profile.uses("sse.write")
	r.deliveryBarrier(tolerant)
	r.checkEvents(tolerant)

	reg.Close()
	readersDone := make(chan struct{})
	go func() { // wg.Wait returns once every reader sees bye or a dead listener
		wg.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-time.After(10 * time.Second):
		r.violate("SSE readers did not exit within 10s of registry close")
	}
	ts.Close()
	pipe.Close()
	r.client.CloseIdleConnections()

	// Goroutine-leak gate: everything the run started must be gone.
	leakDeadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		r.violate("goroutine leak: %d alive after shutdown, %d before the run", n, baseGoroutines)
	}

	r.verdict.Epochs = r.expectedSeq
	for _, s := range r.oracle.subs {
		r.verdict.ExpectedEvents += len(s.expected)
	}
	if tolerant {
		// Which Take is lost to a cut stream depends on scheduling; the
		// delivered count is real but not reproducible, so it stays out of
		// the deterministic verdict.
		r.verdict.DeliveredEvents = -1
	} else {
		for _, rd := range r.readers {
			r.verdict.DeliveredEvents += rd.count()
		}
	}
	if r.extraViol > 0 {
		r.verdict.Violations = append(r.verdict.Violations, fmt.Sprintf("... and %d more violations", r.extraViol))
	}
	r.logf("done epochs=%d accepted=%d rejected=%d cycles=%d queries=%d expected_events=%d violations=%d",
		r.verdict.Epochs, r.verdict.Accepted, r.verdict.Rejected503, r.verdict.DegradeCycles,
		r.verdict.Queries, r.verdict.ExpectedEvents, len(r.verdict.Violations))
	r.verdict.LogHash = hashLog(r.log)
	return &Result{Verdict: r.verdict, Log: r.log}, nil
}

// get issues a GET with an optional If-None-Match and returns status,
// headers, body.
func (r *run) get(path, inm string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest("GET", r.ts.URL+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes(), nil
}

// checkEpochHeader verifies the read-isolation invariant: every read
// names the epoch the oracle says is published.
func (r *run) checkEpochHeader(ctx string, hdr http.Header) {
	want := strconv.FormatUint(r.expectedSeq, 10)
	if got := hdr.Get("X-MO-Epoch"); got != want {
		r.violate("%s: X-MO-Epoch %q, oracle expects %q", ctx, got, want)
	}
}

// ingestTick POSTs one observation batch with ?sync=1 and folds the
// outcome into the oracle: 202 advances the samples (and, unless the
// publish was suppressed by an armed epoch.publish fault, the epoch),
// 503 must carry the degraded envelope and Retry-After.
func (r *run) ingestTick(i int, batch []ingest.Observation, armed map[string]*fault.Spec) int {
	body, err := json.Marshal(batch)
	if err != nil {
		r.violate("tick %d: marshal batch: %v", i, err)
		return 0
	}
	resp, err := r.client.Post(r.ts.URL+"/v1/ingest?sync=1", "application/json", bytes.NewReader(body))
	if err != nil {
		r.violate("tick %d: ingest POST failed: %v", i, err)
		return 0
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		var ack ingestAck
		if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
			r.violate("tick %d: bad 202 body: %v", i, err)
			return resp.StatusCode
		}
		if ack.Accepted != len(batch) || !ack.Synced {
			r.violate("tick %d: ack %+v, want accepted=%d synced=true", i, ack, len(batch))
		}
		r.oracle.accept(batch)
		r.oracle.accepted()
		if armed["epoch.publish"] == nil {
			r.expectedSeq++
			r.oracle.publish(r.expectedSeq)
		}
		r.verdict.Accepted++
	case http.StatusServiceUnavailable:
		var env apiErrorBody
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil || env.Error.Code != "degraded" {
			r.violate("tick %d: 503 with code %q, want \"degraded\"", i, env.Error.Code)
		}
		// ProbeInterval is 1ns; the header rounds up with a floor of one
		// second, so the hint is pinned.
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			r.violate("tick %d: 503 Retry-After %q, want \"1\"", i, ra)
		}
		if armed["wal.put"] == nil {
			r.violate("tick %d: 503 with no wal.put fault armed", i)
		}
		r.oracle.rejected()
		r.verdict.Rejected503++
	default:
		r.violate("tick %d: ingest status %d (%s)", i, resp.StatusCode, buf.String())
	}
	return resp.StatusCode
}

// checkHealthz verifies the degraded-mode contract's status surface and
// counts degrade→recover cycles.
func (r *run) checkHealthz(i int) {
	status, hdr, body, err := r.get("/v1/healthz", "")
	if err != nil {
		r.violate("tick %d healthz: %v", i, err)
		return
	}
	r.verdict.Queries++
	if status != http.StatusOK {
		r.violate("tick %d healthz: status %d", i, status)
		return
	}
	r.checkEpochHeader(fmt.Sprintf("tick %d healthz", i), hdr)
	var h healthzResp
	if err := json.Unmarshal(body, &h); err != nil {
		r.violate("tick %d healthz: bad body: %v", i, err)
		return
	}
	want := "ok"
	if r.oracle.degraded {
		want = "degraded"
	}
	if h.Status != want {
		r.violate("tick %d healthz: status %q, oracle expects %q", i, h.Status, want)
	}
	if r.oracle.degraded && !r.wasDegraded {
		r.inCycle = true
		r.logf("tick %d degrade begins", i)
	}
	if !r.oracle.degraded && r.wasDegraded && r.inCycle {
		r.verdict.DegradeCycles++
		r.inCycle = false
		r.logf("tick %d degrade recovered (cycle %d)", i, r.verdict.DegradeCycles)
	}
	r.wasDegraded = r.oracle.degraded
}

// checkWindow cross-checks one window query; for the first query of a
// tick it also revalidates the response's strong ETag and demands 304.
func (r *run) checkWindow(i int, wq workload.WindowQuery, revisit bool) {
	path := fmt.Sprintf("/v1/window?x1=%s&y1=%s&x2=%s&y2=%s&t1=%s&t2=%s",
		fmtF(wq.Rect.MinX), fmtF(wq.Rect.MinY), fmtF(wq.Rect.MaxX), fmtF(wq.Rect.MaxY),
		fmtF(wq.T1), fmtF(wq.T2))
	status, hdr, body, err := r.get(path, "")
	if err != nil {
		r.violate("tick %d window: %v", i, err)
		return
	}
	r.verdict.Queries++
	if status != http.StatusOK {
		r.violate("tick %d window: status %d (%s)", i, status, body)
		return
	}
	r.checkEpochHeader(fmt.Sprintf("tick %d window", i), hdr)
	var resp windowResp
	if err := json.Unmarshal(body, &resp); err != nil {
		r.violate("tick %d window: bad body: %v", i, err)
		return
	}
	want := r.oracle.window(wq.Rect, wq.T1, wq.T2)
	if resp.Total != len(want) {
		r.violate("tick %d window %s: total %d, oracle expects %d", i, path, resp.Total, len(want))
	}
	if d := diffIDs(resp.IDs, want); d != "" {
		r.violate("tick %d window %s: %s", i, path, d)
	}
	if revisit {
		et := hdr.Get("ETag")
		if et == "" {
			r.violate("tick %d window: response has no ETag", i)
			return
		}
		st2, hdr2, _, err := r.get(path, et)
		if err != nil {
			r.violate("tick %d window revisit: %v", i, err)
			return
		}
		r.verdict.Queries++
		if st2 != http.StatusNotModified {
			r.violate("tick %d window revisit: status %d, want 304", i, st2)
		}
		if hdr2.Get("ETag") != et {
			r.violate("tick %d window revisit: ETag %q, want %q", i, hdr2.Get("ETag"), et)
		}
		r.checkEpochHeader(fmt.Sprintf("tick %d window revisit", i), hdr2)
	}
}

// checkAtInstant cross-checks one atinstant query.
func (r *run) checkAtInstant(i int, t float64) {
	path := "/v1/atinstant?t=" + fmtF(t)
	status, hdr, body, err := r.get(path, "")
	if err != nil {
		r.violate("tick %d atinstant: %v", i, err)
		return
	}
	r.verdict.Queries++
	if status != http.StatusOK {
		r.violate("tick %d atinstant: status %d (%s)", i, status, body)
		return
	}
	r.checkEpochHeader(fmt.Sprintf("tick %d atinstant", i), hdr)
	var resp atInstantResp
	if err := json.Unmarshal(body, &resp); err != nil {
		r.violate("tick %d atinstant: bad body: %v", i, err)
		return
	}
	if resp.T != t {
		r.violate("tick %d atinstant: echoed t %s, want %s", i, fmtF(resp.T), fmtF(t))
	}
	if d := diffPositions(resp.Positions, r.oracle.atInstant(t)); d != "" {
		r.violate("tick %d atinstant t=%s: %s", i, fmtF(t), d)
	}
}

// checkNearby cross-checks one nearby query, order and all.
func (r *run) checkNearby(i int, q workload.NearbyQuery) {
	path := fmt.Sprintf("/v1/nearby?x=%s&y=%s&t=%s", fmtF(q.X), fmtF(q.Y), fmtF(q.T))
	if q.K > 0 {
		path += "&k=" + strconv.Itoa(q.K)
	}
	if q.Radius >= 0 {
		path += "&radius=" + fmtF(q.Radius)
	}
	status, hdr, body, err := r.get(path, "")
	if err != nil {
		r.violate("tick %d nearby: %v", i, err)
		return
	}
	r.verdict.Queries++
	if status != http.StatusOK {
		r.violate("tick %d nearby: status %d (%s)", i, status, body)
		return
	}
	r.checkEpochHeader(fmt.Sprintf("tick %d nearby", i), hdr)
	var resp nearbyResp
	if err := json.Unmarshal(body, &resp); err != nil {
		r.violate("tick %d nearby: bad body: %v", i, err)
		return
	}
	want := r.oracle.nearest(q.X, q.Y, q.T, q.K, q.Radius)
	if resp.Count != len(resp.Results) || resp.K != q.K || resp.Radius != q.Radius {
		r.violate("tick %d nearby %s: echo mismatch %+v", i, path, resp)
	}
	if d := diffNearby(resp.Results, want); d != "" {
		r.violate("tick %d nearby %s: %s", i, path, d)
	}
}

// checkSQL issues the fixed catalog query; the catalog never changes,
// so the body must be byte-identical to the first answer.
func (r *run) checkSQL(i int) {
	path := "/v1/query?q=" + url.QueryEscape(simSQL)
	status, hdr, body, err := r.get(path, "")
	if err != nil {
		r.violate("tick %d query: %v", i, err)
		return
	}
	r.verdict.Queries++
	if status != http.StatusOK {
		r.violate("tick %d query: status %d (%s)", i, status, body)
		return
	}
	r.checkEpochHeader(fmt.Sprintf("tick %d query", i), hdr)
	if r.queryBaseline == nil {
		r.queryBaseline = body
		return
	}
	if !bytes.Equal(body, r.queryBaseline) {
		r.violate("tick %d query: body changed over a static catalog", i)
	}
}

// subscribeAll registers the standing queries through the HTTP API
// (before any observation, so every edge is a post-subscribe flip),
// mirrors each into the oracle, and starts one SSE reader per
// subscription.
func (r *run) subscribeAll(ids []string, wg *sync.WaitGroup) error {
	specs := workload.New(r.cfg.Seed+3).Subscriptions(r.cfg.Subs, ids)
	for _, spec := range specs {
		payload := map[string]any{"predicate": spec.Kind}
		pred := live.Predicate{Kind: live.Kind(spec.Kind)}
		switch spec.Kind {
		case "inside":
			payload["object"] = spec.Object
			payload["region"] = map[string]float64{"x1": spec.Region.MinX, "y1": spec.Region.MinY, "x2": spec.Region.MaxX, "y2": spec.Region.MaxY}
			pred.Object = spec.Object
			pred.Region = spec.Region
		case "within":
			payload["object"] = spec.Object
			payload["x"], payload["y"], payload["radius"] = spec.X, spec.Y, spec.Radius
			pred.Object = spec.Object
			pred.X, pred.Y, pred.Radius = spec.X, spec.Y, spec.Radius
		case "appears":
			payload["region"] = map[string]float64{"x1": spec.Region.MinX, "y1": spec.Region.MinY, "x2": spec.Region.MaxX, "y2": spec.Region.MaxY}
			pred.Region = spec.Region
		}
		body, _ := json.Marshal(payload)
		resp, err := r.client.Post(r.ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("sim: subscribe: %w", err)
		}
		var sr subscribeResp
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("sim: subscribe: status %d (%v)", resp.StatusCode, derr)
		}
		r.oracle.addSub(sr.SubscriptionID, pred)
		r.logf("subscribe %s %s", sr.SubscriptionID, pred)

		rd := &sseReader{url: r.ts.URL + sr.EventsURL}
		r.readers = append(r.readers, rd)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The stream ends with a bye frame on registry close; a dead
			// listener fails the GET.
			for !rd.streamOnce(r.client) {
				// Reconnect after an injected cut; the subscription survives.
			}
		}()
	}
	return nil
}

// deliveryBarrier waits until the registry has pushed every expected
// event (Info.Seq), the SSE handlers have taken them all (Buffered 0),
// and — when no stream cuts were injected — the readers have collected
// them all. Dropped must stay zero throughout: the ring never overflows
// at simulator scale.
func (r *run) deliveryBarrier(tolerant bool) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		lagging := ""
		for k, s := range r.oracle.subs {
			status, _, body, err := r.get("/v1/subscribe/"+s.id, "")
			if err != nil || status != http.StatusOK {
				lagging = fmt.Sprintf("sub %s: info status %d err %v", s.id, status, err)
				break
			}
			var info live.Info
			if err := json.Unmarshal(body, &info); err != nil {
				lagging = fmt.Sprintf("sub %s: bad info: %v", s.id, err)
				break
			}
			if info.Dropped != 0 {
				r.violate("sub %s: %d events dropped from the delivery ring", s.id, info.Dropped)
				return
			}
			if info.Seq != s.seq || info.Buffered != 0 {
				lagging = fmt.Sprintf("sub %s: seq %d/%d buffered %d", s.id, info.Seq, s.seq, info.Buffered)
				break
			}
			if !tolerant && r.readers[k].count() != len(s.expected) {
				lagging = fmt.Sprintf("sub %s: reader has %d of %d events", s.id, r.readers[k].count(), len(s.expected))
				break
			}
		}
		if lagging == "" {
			break
		}
		if time.Now().After(deadline) {
			r.violate("delivery barrier timed out: %s", lagging)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if tolerant {
		// Buffered 0 means taken, not yet necessarily read by the client;
		// give in-flight writes a moment to land before comparing.
		time.Sleep(50 * time.Millisecond)
	}
}

// checkEvents compares every subscription's delivered stream against
// the oracle's expected sequence.
func (r *run) checkEvents(tolerant bool) {
	for k, s := range r.oracle.subs {
		got := r.readers[k].snapshot()
		var d string
		if tolerant {
			d = diffEventsTolerant(s.id, got, s.expected)
		} else {
			d = diffEventsExact(s.id, got, s.expected)
		}
		if d != "" {
			r.violate("%s", d)
		}
		r.logf("events %s expected=%d", s.id, len(s.expected))
	}
}

// sseReader collects one subscription's delivered events across
// however many connections the chaos schedule forces it through.
type sseReader struct {
	url string // immutable

	mu     sync.Mutex
	events []live.Event // guarded by mu
}

func (rd *sseReader) count() int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return len(rd.events)
}

func (rd *sseReader) snapshot() []live.Event {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	out := make([]live.Event, len(rd.events))
	copy(out, rd.events)
	return out
}

// streamOnce consumes one SSE connection. It reports true when the
// stream ended for good — a bye frame (unsubscribe or registry close)
// or a failed GET (listener gone) — and false when the connection died
// mid-stream (an injected cut) and the caller should reconnect.
func (rd *sseReader) streamOnce(client *http.Client) (done bool) {
	resp, err := client.Get(rd.url)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return true
	}
	sc := bufio.NewScanner(resp.Body)
	var evType, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch evType {
			case "enter", "leave":
				var e live.Event
				if json.Unmarshal([]byte(data), &e) == nil {
					rd.mu.Lock()
					rd.events = append(rd.events, e)
					rd.mu.Unlock()
				}
			case "bye":
				return true
			}
			evType, data = "", ""
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return false
}
