package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/geom"
	"movingdb/internal/index"
	"movingdb/internal/ingest"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// The traced run. Each workload is repeated on fixed work — without,
// with and again without the port wrappers installed (traced over
// untraced is the tracing overhead) — and then replayed layer by layer: the same generated inputs
// go to each lower layer's exported entry points on fresh state, top
// down, so that a layer's self time is its own time minus the time its
// replayed children took. Layers the workload does not exercise read 0.

// tracedPass cuts sz to the work of one pass of a traced run, which
// plays every workload three times and then replays it: one set-up, one
// fleet_mixed episode (traceFleet plays single episodes), at most 4 and
// 15 rounds of the frozen workloads and 10 cycles of analytics_sql.
func (sz sizes) tracedPass() sizes {
	sz.Frozen.Setups, sz.Analytics.Setups = 1, 1
	sz.Frozen.UniqueRounds = min(sz.Frozen.UniqueRounds, 4)
	sz.Frozen.RepeatRounds = min(sz.Frozen.RepeatRounds, 15)
	sz.Analytics.Cycles = min(sz.Analytics.Cycles, 10)
	return sz
}

const us = 1e3 // nanoseconds per microsecond

// timeOp returns the median time of one call of f in nanoseconds: five
// batches, each long enough (≥ 10 ms) for the clock not to matter.
func timeOp(f func()) float64 {
	var per []float64
	for batch := 0; batch < 5; batch++ {
		n := 1
		for {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			if el := time.Since(start); el >= 10*time.Millisecond || n >= 1<<22 {
				per = append(per, float64(el)/float64(n))
				break
			}
			n *= 4
		}
	}
	return median(per)
}

// overheadShare is what tracing cost: the traced pass over the mean of
// the untraced passes run before and after it (so that a drift of the
// machine during the three does not read as overhead), minus one.
func overheadShare(traced, before, after float64) float64 {
	return traced/((before+after)/2) - 1
}

// layerTable turns totals and a parent relation into rows with self
// times: a layer's own time minus the time its children took.
type layerTable struct {
	rows []layerRow
}

func (lt *layerTable) add(layer, parent string, totalS float64, source string) {
	lt.rows = append(lt.rows, layerRow{Layer: layer, Parent: parent, TotalS: totalS, Source: source})
}

// finish computes the self times and returns the replay overrun. Summed
// over root and everything below it, self times give back root's total
// by construction, so that sum checks nothing. What can go wrong is a
// child whose time was taken in a separate replay coming out longer
// than what its parent measured in the traced pass (the machine changed
// speed in between, or the replay is not faithful). The parent's self
// time is then clamped to 0, the self times add up to more than root's
// total, and the decomposition is off by exactly that excess. finish
// returns it as a share of root's total: 0 when every child fits.
func (lt *layerTable) finish(root string) float64 {
	children := map[string]float64{}
	for _, r := range lt.rows {
		children[r.Parent] += r.TotalS
	}
	below := map[string]bool{root: true}
	overrun, rootTotal := 0.0, 0.0
	for i := range lt.rows {
		r := &lt.rows[i]
		r.SelfS = math.Max(0, r.TotalS-children[r.Layer])
		if below[r.Parent] {
			below[r.Layer] = true
		}
		if below[r.Layer] {
			overrun += math.Max(0, children[r.Layer]-r.TotalS)
		}
		if r.Layer == root {
			rootTotal = r.TotalS
		}
	}
	if rootTotal == 0 {
		return 0
	}
	return overrun / rootTotal
}

// row returns the named layer's row, zero if the table has none.
func (lt *layerTable) row(layer string) layerRow {
	for _, r := range lt.rows {
		if r.Layer == layer {
			return r
		}
	}
	return layerRow{}
}

// runTraced produces the per-layer metrics of one workload and writes
// its spans to outDir.
func runTraced(name string, seed int64, sz sizes, outDir string) (*result, error) {
	res := newResult(name, seed)
	for _, d := range perLayer {
		res.layer(d.Name, 0)
	}
	sz = sz.tracedPass()
	tr := newTracer()
	var lt *layerTable
	var err error
	switch name {
	case wFleet:
		lt, err = traceFleet(seed, sz, res, tr)
	case wUnique, wRepeat:
		lt, err = traceFrozen(name, seed, sz, res, tr)
	case wAnalytics:
		lt, err = traceAnalytics(seed, sz, res, tr)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, allWorkloads)
	}
	if err != nil {
		return nil, err
	}
	overrun := lt.finish("server")
	res.layer("trace.replay_overrun_share", overrun)
	if overrun > 0.10 {
		res.note("replayed layers outran their parents by %.0f %% of the handler's time: the self times of this run do not add up to it within a tenth; run it again", 100*overrun)
	}
	if srv := lt.row("server"); srv.TotalS > 0 {
		res.layer("server.self_share", srv.SelfS/srv.TotalS)
	}
	path, err := tr.write(outDir, name, seed, lt.rows)
	if err != nil {
		return nil, err
	}
	res.note("spans and layer table: %s", path)
	res.finish()
	return res, nil
}

func cacheLayers(res *result, tr *tracer, c obs.CacheSnapshot) {
	if lookups := c.Hits + c.Misses; lookups > 0 {
		res.layer("cache.hit_ratio", float64(c.Hits)/float64(lookups))
	}
	res.layer("cache.get_busy_s", tr.busyS("cache:get"))
	res.layer("cache.put_busy_s", tr.busyS("cache:put"))
	res.layer("cache.evictions", float64(c.Evictions))
	res.layer("cache.bytes", float64(c.Bytes))
}

func rtLayers(res *result, rt rtStats, ops int) {
	res.layer("rt.allocs_per_op", float64(rt.mallocs)/float64(max(ops, 1)))
	res.layer("rt.bytes_per_op", float64(rt.bytes)/float64(max(ops, 1)))
	res.layer("rt.gc_cycles", float64(rt.gcCycles))
	res.layer("rt.gc_pause_total_ms", float64(rt.pauseNS)/ms)
}

// --- fleet_mixed ---

func traceFleet(seed int64, sz sizes, res *result, tr *tracer) (*layerTable, error) {
	in, err := genFleet(seed, sz.Fleet)
	if err != nil {
		return nil, err
	}
	plain, _, err := runFleetEpisode(seed, sz.Fleet, in, nil, "")
	if err != nil {
		return nil, err
	}
	e, _, err := runFleetEpisode(seed, sz.Fleet, in, tr, "")
	if err != nil {
		return nil, err
	}
	after, _, err := runFleetEpisode(seed, sz.Fleet, in, nil, "")
	if err != nil {
		return nil, err
	}
	res.Reps = 3
	res.merge(plain.checks)
	res.merge(e.checks)
	res.Answers = e.hash
	res.Attempted++
	if plain.hash != e.hash {
		res.fail("traced episode answered %s, untraced %s", e.hash, plain.hash)
	}
	clientS, serverS := (sum(e.acks)+sum(e.reads))/1e9, (sum(e.ackHandler)+sum(e.readHandler))/1e9
	res.BusyS = clientS
	res.layer("trace.overhead_share", overheadShare(sum(e.ticks), sum(plain.ticks), sum(after.ticks)))

	// The end-to-end figures as the traced pass saw them, and the tick
	// classes that own the tail.
	readTailLayers(res, plain.reads)
	sa := e.acks.sorted()
	res.layer("ingest.obs_per_s", float64(in.obs)/(sum(e.ticks)/1e9))
	res.layer("ingest.ack_p50_ms", percentile(sa, 0.50)/ms)
	res.layer("ingest.ack_p95_ms", percentile(sa, 0.95)/ms)
	res.layer("ingest.stall_share", stallShare(e.ticks))
	res.layer("ingest.wal_resident_bytes_per_obs", float64(e.stats.WALPages)*storage.PageSize/float64(in.obs))
	byClass := map[tickClass]sample{}
	for i, c := range e.classes {
		byClass[c] = append(byClass[c], e.acks[i])
	}
	plainP50 := median(byClass[tickPlain])
	mergeExcess := 0.0
	for _, d := range byClass[tickMerge] {
		mergeExcess += math.Max(0, d-plainP50)
	}
	for c, name := range tickClassNames {
		s := byClass[tickClass(c)]
		res.layer("ingest.ticks_"+name, float64(len(s)))
		res.layer("ingest.tick_"+name+"_p50_ms", median(s)/ms)
	}
	res.layer("ingest.merge_time_share", sum(byClass[tickMerge])/sum(e.acks))
	res.layer("ingest.ckpt_time_share", sum(byClass[tickCkpt])/sum(e.acks))
	p95 := percentile(sa, 0.95)
	owners := map[tickClass]int{}
	for i, d := range e.acks {
		if d >= p95 {
			owners[e.classes[i]]++
		}
	}
	res.note("ticks at or above ingest_ack_p95_ms: %d merge, %d checkpoint, %d plain; ack time by class: merge %.0f %%, checkpoint %.0f %%, plain %.0f %%",
		owners[tickMerge], owners[tickCkpt], owners[tickPlain],
		100*sum(byClass[tickMerge])/sum(e.acks), 100*sum(byClass[tickCkpt])/sum(e.acks), 100*sum(byClass[tickPlain])/sum(e.acks))

	res.layer("index.merges", float64(e.stats.IndexMerges))
	res.layer("ingest.epochs_published", float64(e.stats.Epoch))
	res.layer("ingest.checkpoints", float64(e.stats.WALCheckpoints))
	res.layer("ingest.compaction_ratio", float64(e.stats.Compacted)/float64(max(e.stats.Applied, 1)))
	res.layer("ingest.dropped", float64(e.stats.Dropped))
	res.layer("ingest.open_replay_s", e.recover.Seconds())
	res.layer("storage.put_busy_s", tr.busyS("storage:put"))
	res.layer("storage.put_calls", float64(tr.count("storage:put")))
	res.layer("storage.put_bytes", float64(e.putBytes))
	res.layer("storage.compact_busy_s", tr.busyS("storage:compact"))
	res.layer("storage.compact_calls", float64(tr.count("storage:compact")))
	res.layer("live.notify_busy_s", tr.busyS("live:notify"))
	res.layer("live.events", float64(e.live.Events))
	res.layer("live.dropped", float64(e.live.Dropped))
	res.layer("live.evaluated", float64(e.live.Evaluated))
	res.layer("live.avg_eval_us", e.live.AvgEvalMicros)
	cacheLayers(res, tr, e.cache)
	rtLayers(res, e.rt, len(e.acks)+len(e.reads))
	res.layer("server.ingest_p50_us", median(e.ackHandler)/us)
	byRoute := map[string]sample{}
	var overhead sample
	for i, d := range e.readHandler {
		byRoute[e.readRoute[i]] = append(byRoute[e.readRoute[i]], d)
		overhead = append(overhead, e.reads[i]-d)
	}
	routeLayers(res, byRoute)
	res.layer("server.http_overhead_us", median(overhead)/us)
	res.layer("server.resp_bytes_per_query", float64(e.bytes)/float64(len(e.reads)))

	// Replay below the handler: the same batches into a fresh pipeline
	// with the same subscriptions, and the same reads straight into the
	// pinned epoch.
	fs, err := openFleetServer(storage.NewPageStore(), nil)
	if err != nil {
		return nil, err
	}
	defer fs.close()
	sub := newInproc(fs.handler)
	for _, body := range in.subs {
		if r, _ := sub.do("/v1/subscribe", body); r.status != 201 {
			return nil, fmt.Errorf("replay: subscribe status %d", r.status)
		}
	}
	var pipeTicks sample
	er := epochReplay{tr: tr}
	req := 0 // numbers the replayed requests as the traced pass numbered them
	for tick, batch := range in.batches {
		var err error
		req++
		pipeTicks = append(pipeTicks, tr.replay("ingest.pipeline", req, func() {
			_, err = fs.pipe.Ingest(batch)
			fs.pipe.Flush()
		}))
		if err != nil {
			return nil, fmt.Errorf("replay: ingest: %w", err)
		}
		ep := fs.pipe.Epoch()
		for _, q := range in.reads[tick] {
			req++
			er.call(req, ep, q)
		}
	}
	res.layer("ingest.pipeline_busy_s", sum(pipeTicks)/1e9)
	er.layers(res)
	var decode sample
	for i, d := range e.ackHandler {
		decode = append(decode, d-pipeTicks[i])
	}
	res.layer("server.ingest_decode_us", median(decode)/us)

	// Index work on the final state, and the delta sweep.
	entries := oracleOf(fs.pipe.Epoch()).entries()
	start := time.Now()
	tree := index.Build(entries)
	res.layer("index.build_ms", float64(time.Since(start))/ms)
	res.note("index.build_ms is one bulk load of the episode's %d final cubes", len(entries))
	dyn := index.NewDynamic(tree, 1<<30)
	tickEntries := entries[:min(sz.Fleet.Objects, len(entries))]
	var ins sample
	for i := 0; i < 64; i++ {
		start := time.Now()
		dyn.InsertBatch(tickEntries)
		ins = append(ins, float64(time.Since(start)))
	}
	res.layer("index.insertbatch_us", median(ins)/us)
	for _, frac := range []struct {
		name string
		f    float64
	}{{"index.search_us_delta0", 0}, {"index.search_us_delta10", 0.10}, {"index.search_us_delta50", 0.50}} {
		res.layer(frac.name, deltaSearchUS(seed, frac.f))
	}

	lt := &layerTable{}
	lt.add("client", "", clientS, "round trips of the traced pass")
	lt.add("server", "client", serverS, "handler spans of the traced pass")
	lt.add("cache", "server", tr.busyS("cache:get", "cache:put"), "result-cache port wrapper")
	lt.add("ingest", "server", (sum(pipeTicks)+er.busy())/1e9, "Pipeline.Ingest+Flush and Epoch reads replayed without HTTP")
	lt.add("storage", "ingest", tr.busyS("storage:put", "storage:compact"), "page-I/O wrapper under the log")
	lt.add("live", "ingest", tr.busyS("live:notify"), "publish-hook wrapper")
	lt.add("index", "ingest", mergeExcess/1e9, "estimate: ack time of merge ticks above the plain-tick median")
	return lt, nil
}

// readTailLayers reports the read tails of an untraced pass.
func readTailLayers(res *result, reads sample) {
	s := reads.sorted()
	res.layer("server.read_p95_ms", percentile(s, 0.95)/ms)
	res.layer("server.read_p99_ms", percentile(s, 0.99)/ms)
}

func routeLayers(res *result, byRoute map[string]sample) {
	for route, name := range map[string]string{"/v1/window": "server.window_p50_us", "/v1/atinstant": "server.atinstant_p50_us", "/v1/nearby": "server.nearby_p50_us"} {
		res.layer(name, median(byRoute[route])/us)
	}
}

// epochReplay calls the epoch's read entry points directly with decoded
// arguments and keeps their timings by kind.
type epochReplay struct {
	tr                         *tracer
	window, atinstant, nearest sample
}

// call replays request req's read against ep.
func (er *epochReplay) call(req int, ep *ingest.Epoch, q readQuery) {
	switch {
	case q.window != nil:
		er.window = append(er.window, er.tr.replay("ingest.epoch.window", req, func() {
			ep.Window(q.window.Rect, temporal.Closed(temporal.Instant(q.window.T1), temporal.Instant(q.window.T2)))
		}))
	case q.nearby != nil:
		er.nearest = append(er.nearest, er.tr.replay("ingest.epoch.nearest", req, func() {
			ep.Nearest(q.nearby.X, q.nearby.Y, temporal.Instant(q.nearby.T), q.nearby.K, q.nearby.Radius)
		}))
	default:
		er.atinstant = append(er.atinstant, er.tr.replay("ingest.epoch.atinstant", req, func() {
			ep.AtInstant(temporal.Instant(q.t))
		}))
	}
}

func (er *epochReplay) busy() float64 { return sum(er.window) + sum(er.atinstant) + sum(er.nearest) }

func (er *epochReplay) layers(res *result) {
	res.layer("ingest.epoch_window_us", median(er.window)/us)
	res.layer("ingest.epoch_atinstant_us", median(er.atinstant)/us)
	res.layer("ingest.epoch_nearest_us", median(er.nearest)/us)
}

// entries rebuilds the index entries of the oracle's objects: one cube
// per unit, keyed (object, unit) as the store keys them.
func (o windowOracle) entries() []index.Entry {
	var out []index.Entry
	for oi, mp := range o.objs {
		for ui, u := range mp.M.Units() {
			out = append(out, index.Entry{Cube: u.Cube(), ID: int64(oi)<<32 | int64(ui)})
		}
	}
	return out
}

// deltaSearchUS is BENCH_PR2's sweep: 20 000 entries of a 100-object
// stream, the last frac of them left in the delta buffer, searched with
// a fixed set of windows.
func deltaSearchUS(seed int64, frac float64) float64 {
	stream := workload.New(seed+7).ObservationStream("s", 100, 200, 0, 1, 50)
	var entries []index.Entry
	last := map[string]workload.Observation{}
	for i, o := range stream {
		if p, ok := last[o.ID]; ok {
			c := geom.Cube{Rect: geom.Rect{MinX: min(p.P.X, o.P.X), MinY: min(p.P.Y, o.P.Y), MaxX: max(p.P.X, o.P.X), MaxY: max(p.P.Y, o.P.Y)}, MinT: float64(p.T), MaxT: float64(o.T)}
			entries = append(entries, index.Entry{Cube: c, ID: int64(i)})
		}
		last[o.ID] = o
	}
	split := int(float64(len(entries)) * (1 - frac))
	dyn := index.NewDynamic(index.Build(entries[:split]), 1<<30)
	dyn.InsertBatch(entries[split:])
	var buf []int64
	k := 0
	return timeOp(func() {
		x, y := float64((k*131)%900), float64((k*57)%900)
		buf, _ = dyn.Search(geom.Cube{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}, MinT: 0, MaxT: 50}, buf[:0])
		k++
	}) / us
}

// --- query_unique / query_repeat ---

func traceFrozen(name string, seed int64, sz sizes, res *result, tr *tracer) (*layerTable, error) {
	repeat := name == wRepeat
	plain, pfz, err := runFrozen(seed, sz.Frozen, repeat, nil, "")
	if err != nil {
		return nil, err
	}
	pfz.close()
	run, fz, err := runFrozen(seed, sz.Frozen, repeat, tr, "")
	if err != nil {
		return nil, err
	}
	defer fz.close()
	after, afz, err := runFrozen(seed, sz.Frozen, repeat, nil, "")
	if err != nil {
		return nil, err
	}
	afz.close()
	res.Reps = 3
	res.merge(plain.checks)
	res.merge(run.checks)
	res.Answers = run.hash
	res.Attempted++
	if plain.hash != run.hash {
		res.fail("traced pass answered %s, untraced %s", run.hash, plain.hash)
	}
	res.BusyS = run.busy.Seconds()
	res.layer("trace.overhead_share", overheadShare(run.busy.Seconds(), plain.busy.Seconds(), after.busy.Seconds()))
	cacheLayers(res, tr, run.cache)
	cacheS := tr.busyS("cache:get", "cache:put") // before the loopback sample below adds to it
	rtLayers(res, run.rt, len(run.lat))
	readTailLayers(res, plain.lat)
	routeLayers(res, run.byRoute)
	res.layer("server.resp_bytes_per_query", float64(run.bytes)/float64(len(run.lat)))

	// The requests of the pass, regenerated from the seed.
	var qs []readQuery
	if repeat {
		qs = genReads(workload.New(seed+5), sz.Frozen.Distinct, fz.span)
	} else {
		g := workload.New(seed + 4)
		for len(qs) < len(run.lat) {
			qs = append(qs, genReads(g, sz.Frozen.Round, fz.span)...)
		}
	}

	// net/http's share: a small sample of the same requests over a
	// loopback connection against the in-process time.
	ts := httptest.NewServer(fz.handler)
	cl, in := newLoopback(ts), newInproc(fz.handler)
	var over sample
	for _, q := range qs[:min(300, len(qs))] {
		a, err := cl.do(q.path, nil)
		if err != nil {
			ts.Close()
			return nil, err
		}
		b, _ := in.do(q.path, nil)
		over = append(over, float64(a.took-b.took))
	}
	ts.Close()
	res.layer("server.http_overhead_us", median(over)/us)

	lt := &layerTable{}
	lt.add("server", "", run.busy.Seconds(), "in-process handler calls of the traced pass")
	lt.add("cache", "server", cacheS, "result-cache port wrapper")
	if repeat {
		// Every request hit: nothing below the cache ran.
		res.layer("obs.record_request_ns", timeOp(func() { fz.metrics.RecordRequest("/v1/window", 200, 7*time.Microsecond) }))
		res.layer("obs.snapshot_us", timeOp(func() { fz.metrics.Snapshot() })/us)
		lt.add("ingest", "server", 0, "not reached: every request hit the cache")
		lt.add("index", "ingest", 0, "not reached")
		return lt, nil
	}

	ep := fz.pipe.Epoch()
	er := epochReplay{tr: tr}
	for i, q := range qs[:len(run.lat)] {
		er.call(i+1, ep, q)
	}
	er.layers(res)

	// The index alone: a tree rebuilt from the epoch's units, searched
	// with the same windows and nearest queries.
	objs := fz.oracle().objs
	snap := index.NewDynamic(index.Build(fz.oracle().entries()), 1<<30).Snapshot()
	var search, knn sample
	visited := 0
	var buf []int64
	for i, q := range qs[:len(run.lat)] {
		switch {
		case q.window != nil:
			cube := geom.Cube{Rect: q.window.Rect, MinT: q.window.T1, MaxT: q.window.T2}
			var v int
			search = append(search, tr.replay("index.search", i+1, func() { buf, v = snap.Search(cube, buf[:0]) }))
			visited += v
		case q.nearby != nil:
			nq := q.nearby
			refine := func(id int64) (int64, float64, bool) {
				oi := id >> 32
				p := objs[oi].AtInstant(temporal.Instant(nq.T))
				if !p.Defined() {
					return oi, 0, false
				}
				return oi, math.Hypot(p.P.X-nq.X, p.P.Y-nq.Y), true
			}
			knn = append(knn, tr.replay("index.nearest", i+1, func() { snap.Nearest(nq.X, nq.Y, nq.T, nq.K, nq.Radius, refine) }))
		}
	}
	res.layer("index.search_us", median(search)/us)
	res.layer("index.nodes_visited_per_search", float64(visited)/float64(max(len(search), 1)))
	res.layer("index.knn_us", median(knn)/us)
	long := workload.New(seed+8).RandomTrajectory(0, 16384, 1, 2)
	k := 0
	res.layer("mapping.findunit_ns", timeOp(func() {
		long.M.FindUnit(temporal.Instant(float64((k * 7919) % 16384)))
		k++
	}))

	lt.add("ingest", "server", er.busy()/1e9, "Epoch.Window/AtInstant/Nearest replayed with the decoded arguments")
	lt.add("index", "ingest", (sum(search)+sum(knn))/1e9, "Search/Nearest replayed on an index rebuilt from the epoch")
	return lt, nil
}

// --- analytics_sql ---

func traceAnalytics(seed int64, sz sizes, res *result, tr *tracer) (*layerTable, error) {
	plain, _, err := runAnalytics(seed, sz.Analytics, nil, "")
	if err != nil {
		return nil, err
	}
	run, ac, err := runAnalytics(seed, sz.Analytics, tr, "")
	if err != nil {
		return nil, err
	}
	after, _, err := runAnalytics(seed, sz.Analytics, nil, "")
	if err != nil {
		return nil, err
	}
	res.Reps = 3
	res.merge(plain.checks)
	res.merge(run.checks)
	res.Answers = run.hash
	res.Attempted++
	if plain.hash != run.hash {
		res.fail("traced pass answered %s, untraced %s", run.hash, plain.hash)
	}
	res.BusyS = run.busy.Seconds()
	res.layer("trace.overhead_share", overheadShare(run.busy.Seconds(), plain.busy.Seconds(), after.busy.Seconds()))
	cacheLayers(res, tr, ac.metrics.Snapshot().Cache)
	rtLayers(res, run.rt, len(run.lat))
	readTailLayers(res, plain.lat)
	res.layer("server.resp_bytes_per_query", float64(run.bytes)/float64(len(run.lat)))
	var handler, over sample
	for i, d := range run.handler {
		handler = append(handler, d)
		over = append(over, run.lat[i]-d)
	}
	res.layer("server.query_p50_us", median(handler)/us)
	res.layer("server.http_overhead_us", median(over)/us)

	// The evaluator recorded every lifted operator it called during the
	// traced pass: that is the kernels' time.
	kernelS := 0.0
	for _, op := range run.ops {
		kernelS += float64(op.Count) * op.AvgMicros / 1e6
	}

	// Replay below the handler: the same statements into the evaluator.
	snap := db.Snapshot{Catalog: ac.cat}
	byTemplate := map[byte]sample{}
	dbBusy := 0.0
	for i, sql := range run.sqls {
		// Replayed twice, the faster kept: the replay must not be charged
		// for interference the traced pass did not see.
		d := math.Inf(1)
		for rep := 0; rep < 2; rep++ {
			var err error
			d = math.Min(d, tr.replay("db.query", i+1, func() {
				_, err = snap.QueryContext(obs.NewContext(context.Background(), obs.New(0)), sql)
			}))
			if err != nil {
				return nil, fmt.Errorf("replay %q: %w", sql, err)
			}
		}
		dbBusy += d
		t := analyticsCycle[i%len(analyticsCycle)]
		byTemplate[t] = append(byTemplate[t], d)
	}
	res.layer("db.query_busy_s", dbBusy/1e9)
	for _, t := range []byte{'a', 'b', 'c', 'd'} {
		res.layer(fmt.Sprintf("db.template_%c_p50_ms", t), median(byTemplate[t])/ms)
	}
	res.layer("db.parse_us", timeOp(func() {
		_, _ = snap.QueryContext(context.Background(), "SELECT id FROM planes LIMIT 1") // timing only; the statement is known to be valid
	})/us)

	// The kernels on the values the queries touch.
	f0, f1, storm := ac.flights[0].Flight, ac.flights[1].Flight, ac.storms[0]
	k := 0
	res.layer("moving.inside_us", timeOp(func() {
		ac.flights[k%len(ac.flights)].Flight.Inside(ac.storms[k%len(ac.storms)])
		k++
	})/us)
	fi, si := f0.M.Intervals(), storm.M.Intervals()
	res.layer("temporal.refine_ns_per_unit", timeOp(func() { temporal.Refine(fi, si) })/float64(len(fi)+len(si)))
	res.layer("moving.distance_atmin_us", timeOp(func() { f0.Distance(f1).AtMin().Initial() })/us)
	res.layer("moving.area_us", timeOp(func() { storm.Area() })/us)
	big := workload.New(seed+9).Storm(0, 4096, 12, 6)
	res.layer("moving.atinstant_mregion_us", timeOp(func() {
		big.AtInstant(temporal.Instant(float64((k*7919)%(4096*6)) + 0.5))
		k++
	})/us)
	storageLayers(res, workload.New(seed+10).RandomTrajectory(0, 1024, 1, 2))

	lt := &layerTable{}
	lt.add("client", "", run.busy.Seconds(), "round trips of the traced pass")
	lt.add("server", "client", sum(handler)/1e9, "handler spans of the traced pass")
	lt.add("cache", "server", tr.busyS("cache:get", "cache:put"), "result-cache port wrapper")
	lt.add("db", "server", dbBusy/1e9, "db.QueryContext replayed without HTTP")
	lt.add("moving", "db", kernelS, "operator timings the evaluator records in obs, traced pass")
	return lt, nil
}

func storageLayers(res *result, mp moving.MPoint) {
	n := float64(mp.M.Len())
	enc := storage.EncodeMPoint(mp)
	res.layer("storage.encode_mpoint_ns_per_unit", timeOp(func() { storage.EncodeMPoint(mp) })/n)
	res.layer("storage.decode_mpoint_ns_per_unit", timeOp(func() {
		_, _ = storage.DecodeMPoint(enc) // timing only; enc was produced by EncodeMPoint above
	})/n)
	res.layer("storage.mpoint_bytes_per_unit", float64(enc.TotalSize())/n)
}
