package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// fleet_mixed: a fleet reports positions while readers query beside it.
// One episode is a fixed amount of work — a fresh server, every tick of
// the stream, then recovery of the log the run left behind — so the
// epoch, merge and checkpoint counts and every answer are a function of
// the seed alone. A run plays a fixed number of whole episodes.

// fleetSize fixes the work of one episode.
type fleetSize struct {
	Objects  int `json:"objects"`
	Steps    int `json:"steps"` // ticks = steps + 1: the stream opens with one fix per object
	Subs     int `json:"subscriptions"`
	PerTick  int `json:"reads_per_route_per_tick"`
	Probes   int `json:"recovery_probes"`
	Episodes int `json:"episodes"`
}

// Six episodes are about fifteen seconds of round trips here.
var fleetFull = fleetSize{Objects: 570, Steps: 200, Subs: 64, PerTick: 3, Probes: 20, Episodes: 6}

// fleetInputs is everything generated from the seed; the server sees
// only these bytes.
type fleetInputs struct {
	subs   [][]byte      // POST /v1/subscribe bodies
	ticks  [][]byte      // POST /v1/ingest bodies, one per tick
	reads  [][]readQuery // per tick: window, atinstant and nearby reads
	probes []string      // read paths replayed against the recovered pipeline
	obs    int           // observations in the stream
	// batches keeps the decoded observations for the layered replay of a
	// traced run.
	batches [][]ingest.Observation
}

// readQuery is one generated read: the path the client sends and the
// decoded form the oracle and the layered replay use.
type readQuery struct {
	path   string
	window *workload.WindowQuery
	nearby *workload.NearbyQuery
	t      float64 // atinstant
}

func (q readQuery) route() string {
	switch {
	case q.window != nil:
		return "/v1/window"
	case q.nearby != nil:
		return "/v1/nearby"
	}
	return "/v1/atinstant"
}

// genReads returns n reads, window : atinstant : nearby in turn, over
// the time range [0, span].
func genReads(g *workload.Gen, n int, span float64) []readQuery {
	per := (n + 2) / 3
	ws, ts, ns := g.WindowQueries(per, 0, span), g.Instants(per, 0, span), g.NearbyQueries(per, 0, span, 10)
	out := make([]readQuery, 0, 3*per)
	for i := 0; i < per; i++ {
		out = append(out,
			readQuery{path: windowPath(ws[i]), window: &ws[i]},
			readQuery{path: instantPath(ts[i]), t: ts[i]},
			readQuery{path: nearbyPath(ns[i]), nearby: &ns[i]})
	}
	return out[:n]
}

func windowPath(q workload.WindowQuery) string {
	return "/v1/window?x1=" + num(q.Rect.MinX) + "&y1=" + num(q.Rect.MinY) +
		"&x2=" + num(q.Rect.MaxX) + "&y2=" + num(q.Rect.MaxY) +
		"&t1=" + num(q.T1) + "&t2=" + num(q.T2)
}

func instantPath(t float64) string { return "/v1/atinstant?t=" + num(t) }

func nearbyPath(q workload.NearbyQuery) string {
	p := "/v1/nearby?x=" + num(q.X) + "&y=" + num(q.Y) + "&t=" + num(q.T)
	if q.K > 0 {
		p += fmt.Sprintf("&k=%d", q.K)
	}
	if q.Radius >= 0 {
		p += "&radius=" + num(q.Radius)
	}
	return p
}

func toObservations(ws []workload.Observation) []ingest.Observation {
	out := make([]ingest.Observation, len(ws))
	for i, w := range ws {
		out[i] = ingest.Observation{ObjectID: w.ID, T: float64(w.T), X: w.P.X, Y: w.P.Y}
	}
	return out
}

func subscribeBody(s workload.SubscriptionSpec) ([]byte, error) {
	body := map[string]any{"predicate": s.Kind}
	switch s.Kind {
	case "inside", "appears":
		body["region"] = map[string]float64{"x1": s.Region.MinX, "y1": s.Region.MinY, "x2": s.Region.MaxX, "y2": s.Region.MaxY}
	case "within":
		body["x"], body["y"], body["radius"] = s.X, s.Y, s.Radius
	}
	if s.Object != "" {
		body["object"] = s.Object
	}
	return json.Marshal(body)
}

// fleetDataSeed generates the observation stream and the subscriptions.
// As on the other workloads the data belongs to the workload's
// definition and -seed drives the reads sent beside it: 570 random walks
// are a small sample, and which of them happen to cluster moved the
// median read by a tenth from seed to seed.
const fleetDataSeed = 570

func genFleet(seed int64, size fleetSize) (*fleetInputs, error) {
	in := &fleetInputs{}
	stream := toObservations(workload.New(fleetDataSeed).ObservationStream("veh", size.Objects, size.Steps, 0, 1, 8))
	in.obs = len(stream)
	ids := make([]string, size.Objects)
	for i := range ids {
		ids[i] = stream[i].ObjectID
	}
	for _, spec := range workload.New(fleetDataSeed+1).Subscriptions(size.Subs, ids) {
		b, err := subscribeBody(spec)
		if err != nil {
			return nil, err
		}
		in.subs = append(in.subs, b)
	}
	qg := workload.New(seed + 2)
	for tick := 0; tick <= size.Steps; tick++ {
		batch := stream[tick*size.Objects : (tick+1)*size.Objects]
		b, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		in.ticks = append(in.ticks, b)
		in.batches = append(in.batches, batch)
		// Reads look back over everything ingested so far, so they touch
		// base tree and delta alike.
		in.reads = append(in.reads, genReads(qg, 3*size.PerTick, float64(max(tick, 1))))
	}
	for _, q := range genReads(workload.New(seed+3), size.Probes, float64(size.Steps)) {
		in.probes = append(in.probes, q.path)
	}
	return in, nil
}

// fleetServer is the stack as `moserver -ingest` wires it: shipped
// ingest defaults, the live registry on the publish hook, an in-memory
// page store under the log.
type fleetServer struct {
	metrics *obs.Metrics
	reg     *live.Registry
	pipe    *ingest.Pipeline
	handler http.Handler
	io      *tracedIO // nil unless traced
}

func openFleetServer(ps *storage.PageStore, tr *tracer) (*fleetServer, error) {
	fs := &fleetServer{metrics: obs.New(0)}
	fs.reg = live.NewRegistry(live.Config{Metrics: fs.metrics})
	icfg := ingest.Config{Log: ps, Metrics: fs.metrics, OnPublish: tracedPublish(tr, fs.reg.Notify)}
	scfg := server.Config{Live: fs.reg, Metrics: fs.metrics, Cache: tracedCacheFor(tr, fs.metrics)}
	if tr != nil {
		fs.io = &tracedIO{PageIO: pageStoreIO{ps}, t: tr}
		icfg.LogIO = fs.io
	}
	var err error
	if fs.pipe, err = ingest.Open(icfg); err != nil {
		fs.reg.Close()
		return nil, err
	}
	scfg.Ingest = fs.pipe
	srv, err := server.New(scfg)
	if err != nil {
		fs.close()
		return nil, err
	}
	fs.handler = tracedHandler(tr, srv.Handler())
	return fs, nil
}

func (fs *fleetServer) close() {
	fs.reg.Close()
	fs.pipe.Close()
}

// awaitLive waits until the registry's notifier goroutine has worked
// off every queued publish, so the live counters are final. The registry
// exports no idle signal; two equal snapshots a few milliseconds apart,
// taken while nothing publishes, are one.
func (fs *fleetServer) awaitLive() obs.LiveSnapshot {
	prev := fs.metrics.Snapshot().Live
	for i := 0; i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := fs.metrics.Snapshot().Live
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// tickClass says what background work a tick's POST coincided with.
type tickClass int

const (
	tickPlain tickClass = iota
	tickMerge
	tickCkpt
)

var tickClassNames = [...]string{"plain", "merge", "ckpt"}

// classifyTick compares the pipeline counters before and after a tick.
// A checkpoint quiesces the whole lane, so it names the tick even when
// a merge fell into it as well.
func classifyTick(before, after ingest.Stats) tickClass {
	switch {
	case after.WALCheckpoints > before.WALCheckpoints:
		return tickCkpt
	case after.IndexMerges > before.IndexMerges:
		return tickMerge
	}
	return tickPlain
}

// fleetEpisode is what one episode measured.
type fleetEpisode struct {
	setup   time.Duration
	acks    sample // POST round trips
	reads   sample // GET round trips, beside the writes
	ticks   sample // POST + its reads
	classes []tickClass
	recover time.Duration
	heapMB  float64
	stats   ingest.Stats
	live    obs.LiveSnapshot
	cache   obs.CacheSnapshot
	hash    string
	rt      rtStats // runtime counters across the tick loop
	bytes   int64   // read answer bytes
	// Factors to the nominal machine: of the set-up, of each window of
	// refWindow ticks (one reference reading per tick), of the recovery.
	setupScale, recoverScale float64
	scales                   []float64
	checks
	// traced only: handler time of each POST and each read (parallel to
	// acks and reads), the route of each read, and what the log wrote.
	ackHandler  sample
	readHandler sample
	readRoute   []string
	putBytes    int64
}

// refWindow is how many ticks share one factor to the nominal machine:
// a third of a second here, short against the seconds for which the host
// keeps one speed, long enough for the median of its readings to be one.
const refWindow = 25

// nominal returns acks, reads and ticks on the nominal machine: each
// scaled by the factor of the window its tick lies in.
func (ep *fleetEpisode) nominal() (acks, reads, ticks sample) {
	perTick := len(ep.reads) / len(ep.ticks)
	for i := range ep.ticks {
		f := ep.scales[i/refWindow]
		acks, ticks = append(acks, ep.acks[i]*f), append(ticks, ep.ticks[i]*f)
		for _, d := range ep.reads[i*perTick : (i+1)*perTick] {
			reads = append(reads, d*f)
		}
	}
	return acks, reads, ticks
}

// runFleetEpisode plays the whole stream once. in may be nil, in which
// case generating it is part of the episode's set-up time.
func runFleetEpisode(seed int64, size fleetSize, in *fleetInputs, tr *tracer, plant string) (*fleetEpisode, *fleetInputs, error) {
	ep := &fleetEpisode{}
	ans := newAnswers()
	speed := &speedometer{}
	owned := in == nil
	ps := storage.NewPageStore()
	var fs *fleetServer
	var ts *httptest.Server
	var cl *loopback
	var err error
	ep.setup, ep.setupScale, err = speed.timed(func() (err error) {
		if owned {
			if in, err = genFleet(seed, size); err != nil {
				return err
			}
		}
		if fs, err = openFleetServer(ps, tr); err != nil {
			return err
		}
		ts = httptest.NewServer(fs.handler)
		cl = newLoopback(ts)
		for _, body := range in.subs {
			r, err := cl.do("/v1/subscribe", body)
			ep.expectStatus("subscribe", r, err, http.StatusCreated)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	defer fs.close()
	defer ts.Close()

	windowsSeen := 0
	rt0 := readRT()
	for tick, body := range in.ticks {
		if tick > 0 && tick%refWindow == 0 {
			ep.scales = append(ep.scales, speed.scale())
		}
		speed.sample()
		var before ingest.Stats
		if tr != nil {
			before = fs.pipe.Stats()
		}
		tr.nextRequest()
		r, err := cl.do("/v1/ingest?sync=1", body)
		ep.expectStatus("ingest", r, err, http.StatusAccepted)
		ans.add(r.body)
		ep.acks = append(ep.acks, float64(r.took))
		tickTook := r.took
		if tr != nil {
			ep.classes = append(ep.classes, classifyTick(before, fs.pipe.Stats()))
			ep.ackHandler = append(ep.ackHandler, float64(tr.takeHandler()))
		}
		for _, q := range in.reads[tick] {
			tr.nextRequest()
			r, err := cl.do(q.path, nil)
			ep.expectStatus(q.path, r, err, http.StatusOK)
			ans.add(r.body)
			ep.reads = append(ep.reads, float64(r.took))
			ep.bytes += int64(len(r.body))
			tickTook += r.took
			if tr != nil {
				ep.readHandler = append(ep.readHandler, float64(tr.takeHandler()))
				ep.readRoute = append(ep.readRoute, q.route())
			}
			if q.window != nil && err == nil {
				if windowsSeen%50 == 0 {
					// Single client, synchronous ingest: the epoch current
					// now is the one that answered.
					oracleOf(fs.pipe.Epoch()).check(&ep.checks, *q.window, r.body, plant == "window" && windowsSeen == 0)
				}
				windowsSeen++
			}
		}
		ep.ticks = append(ep.ticks, float64(tickTook))
	}
	ep.rt = readRT().since(rt0)
	ep.scales = append(ep.scales, speed.scale())
	if fs.io != nil {
		ep.putBytes = fs.io.bytesPut()
	}

	ep.stats = fs.pipe.Stats()
	ep.live = fs.awaitLive()
	ep.cache = fs.metrics.Snapshot().Cache
	ep.Attempted++
	if got := ep.stats.Applied + ep.stats.Dropped; got != int64(in.obs) {
		ep.fail("applied+dropped = %d, sent %d observations", got, in.obs)
	}
	if owned {
		// Release the generator's inputs before the heap is read.
		in = &fleetInputs{obs: in.obs, probes: in.probes}
	}
	ep.heapMB = heapLiveMB(0)

	// Recovery: a second pipeline opens the log the run left behind. The
	// first one stays open (and idle) so the probes can be answered by
	// both.
	var rec *ingest.Pipeline
	ep.recover, ep.recoverScale, err = speed.timed(func() (err error) {
		rec, err = ingest.Open(ingest.Config{Log: ps})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	ep.checkRecovered(fs, rec, in.probes)
	ep.hash = ans.sum()
	return ep, in, nil
}

// windowOracle answers window queries by scanning every unit of a set
// of objects: the reference the served, indexed answers are held against.
type windowOracle struct {
	ids  []string
	objs []moving.MPoint
}

// oracleOf materialises the objects of an epoch.
func oracleOf(ep *ingest.Epoch) windowOracle {
	var o windowOracle
	for _, s := range ep.Summaries() {
		mp, _ := ep.Snapshot(s.ID)
		o.ids = append(o.ids, s.ID)
		o.objs = append(o.objs, mp)
	}
	return o
}

// check compares one served window answer with the scan. plant is the
// test hook: it makes the expected answer wrong.
func (o windowOracle) check(c *checks, q workload.WindowQuery, body []byte, plant bool) {
	c.Attempted++
	var got struct {
		Total int      `json:"total"`
		IDs   []string `json:"ids"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		c.fail("window answer does not parse: %v", err)
		return
	}
	var want []string
	for _, oi := range index.ScanWindow(o.objs, q.Rect, temporal.Closed(temporal.Instant(q.T1), temporal.Instant(q.T2))) {
		want = append(want, o.ids[oi])
	}
	if plant {
		want = append(want, "planted-wrong-answer")
	}
	if got.Total != len(want) || !slices.Equal(got.IDs, want) {
		c.fail("window %v [%g,%g]: served %d ids, scan finds %d", q.Rect, q.T1, q.T2, len(got.IDs), len(want))
	}
}

// checkRecovered holds the recovered pipeline against the one that
// wrote the log: same objects, same units, byte-identical answers.
func (c *checks) checkRecovered(fs *fleetServer, rec *ingest.Pipeline, probes []string) {
	c.Attempted++
	a, b := fs.pipe.Stats(), rec.Stats()
	if a.Objects != b.Objects || a.Units != b.Units {
		c.fail("recovered %d objects / %d units, wrote %d / %d", b.Objects, b.Units, a.Objects, a.Units)
	}
	rsrv, err := server.New(server.Config{Ingest: rec})
	if err != nil {
		c.fail("server over recovered pipeline: %v", err)
		return
	}
	orig, recovered := newInproc(fs.handler), newInproc(rsrv.Handler())
	for _, path := range probes {
		c.Attempted++
		ra, _ := orig.do(path, nil)
		want := bytes.Clone(ra.body)
		rb, _ := recovered.do(path, nil)
		if ra.status != http.StatusOK || rb.status != http.StatusOK || !bytes.Equal(want, rb.body) {
			c.fail("probe %s differs after recovery (status %d/%d)", path, ra.status, rb.status)
		}
	}
}
