package main

import (
	"fmt"
	"math"

	"movingdb/internal/storage"
)

// sizes selects the work every workload does, repetition counts
// included: a run is a fixed amount of work, never a fixed duration, so
// counts repeat exactly and the state is the same size on both sides of
// a comparison. The full sizes are the benchmark; the tests run the same
// code at toy sizes.
type sizes struct {
	Fleet     fleetSize     `json:"fleet_mixed"`
	Frozen    frozenSize    `json:"query_unique_and_repeat"`
	Analytics analyticsSize `json:"analytics_sql"`
}

// fullSizes is the work of a run of defaultSeconds: the repetition
// counts are what this sandbox gets through in about that much measured
// time.
var fullSizes = sizes{Fleet: fleetFull, Frozen: frozenFull, Analytics: analyticsFull}

// lasting returns sz with its repetition counts brought from
// defaultSeconds to seconds. This is all -seconds decides: how many
// whole episodes and rounds a run plays, fixed before the first of them
// starts and recorded in the result, never how large one is or when to
// stop. The floors keep the median of an episode's set-up and recovery a
// median, and the hashed and heap-read prefixes inside the run.
func (sz sizes) lasting(seconds float64) sizes {
	reps := func(n, floor int) int {
		return max(int(math.Round(float64(n)*seconds/defaultSeconds)), floor)
	}
	sz.Fleet.Episodes = reps(sz.Fleet.Episodes, 3)
	sz.Frozen.UniqueRounds = reps(sz.Frozen.UniqueRounds, 2)
	sz.Frozen.RepeatRounds = reps(sz.Frozen.RepeatRounds, 2)
	sz.Analytics.Cycles = reps(sz.Analytics.Cycles, 8)
	return sz
}

const ms = 1e6 // nanoseconds per millisecond

// queryMetrics sets the rate and latency metrics of a query workload.
// lat holds every request of the run in order, in equally long rounds;
// scales holds each round's factor to the nominal machine (see
// reference.go). Every latency is scaled by its round's factor, and
// every figure is then taken over all requests of the run.
func queryMetrics(res *result, lat sample, scales []float64) {
	n, per := len(lat), len(lat)/len(scales)
	nominal := make(sample, n)
	for i, v := range lat {
		nominal[i] = v * scales[i/per]
	}
	res.set("query_per_s", float64(n)/(sum(nominal)/1e9), n)
	nominal = nominal.sorted()
	res.set("query_p50_ms", percentile(nominal, 0.50)/ms, n)
	res.set("query_p95_ms", percentile(nominal, 0.95)/ms, n)
	res.set("query_p99_ms", percentile(nominal, 0.99)/ms, n)
	if p, ok := tailLevel(n); ok && p > 0.99 {
		res.info(fmt.Sprintf("query_p%g_ms", p*100), "ms", percentile(nominal, p)/ms, n)
	}
	raw := lat.sorted()
	res.info("raw_query_per_s", "1/s", float64(n)/(sum(lat)/1e9), n)
	res.info("raw_query_p50_ms", "ms", percentile(raw, 0.50)/ms, n)
	res.info("raw_query_p95_ms", "ms", percentile(raw, 0.95)/ms, n)
	res.info("machine_scale", "ratio", median(scales), len(scales))
	res.note("%d requests, scaled to the nominal machine in %d rounds of %d", n, len(scales), per)
}

func (r *result) finish() {
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("failed_share", share, r.Attempted)
}

// runFleet plays the run's episodes and takes every figure over all
// their ticks and reads, each brought to the nominal machine first.
func runFleet(seed int64, sz sizes, plant string) (*result, error) {
	res := newResult(wFleet, seed)
	var acks, reads, ticks sample
	var setups, recovers, heaps, scales []float64
	obs := 0
	for ep := 0; ep < sz.Fleet.Episodes; ep++ {
		e, in, err := runFleetEpisode(seed, sz.Fleet, nil, nil, plant)
		if err != nil {
			return nil, err
		}
		res.Reps++
		res.merge(e.checks)
		a, r, t := e.nominal()
		acks, reads, ticks = append(acks, a...), append(reads, r...), append(ticks, t...)
		setups = append(setups, e.setup.Seconds()*e.setupScale)
		recovers = append(recovers, e.recover.Seconds()*e.recoverScale)
		heaps, scales = append(heaps, e.heapMB), append(scales, e.scales...)
		obs += in.obs
		res.BusyS += sum(e.ticks) / 1e9
		// Episodes of one seed do identical work; any difference in what
		// they answered or counted is a failure of determinism.
		res.Attempted++
		switch {
		case res.Answers == "":
			res.Answers = e.hash
			res.set("wal_resident_bytes_per_obs", float64(e.stats.WALPages)*storage.PageSize/float64(in.obs), 0)
			res.info("index_merges", "count", float64(e.stats.IndexMerges), 0)
			res.info("epochs_published", "count", float64(e.stats.Epoch), 0)
			res.info("wal_checkpoints", "count", float64(e.stats.WALCheckpoints), 0)
			res.info("live_events", "count", float64(e.live.Events), 0)
		case res.Answers != e.hash:
			res.fail("episode %d answered %s, episode 0 answered %s", ep, e.hash, res.Answers)
		}
	}
	loopS := sum(ticks) / 1e9
	sa, sr := acks.sorted(), reads.sorted()
	res.note("%d episodes of %d ticks, scaled to the nominal machine in windows of %d ticks", res.Reps, len(ticks)/res.Reps, refWindow)
	res.set("setup_s", median(setups), len(setups))
	res.set("ingest_obs_per_s", float64(obs)/loopS, len(ticks))
	res.set("ingest_ack_p50_ms", percentile(sa, 0.50)/ms, len(sa))
	res.set("ingest_ack_p95_ms", percentile(sa, 0.95)/ms, len(sa))
	res.info("ingest_ack_p99_ms", "ms", percentile(sa, 0.99)/ms, len(sa))
	res.set("ingest_stall_share", stallShare(ticks), len(ticks))
	res.set("query_per_s", float64(len(reads))/loopS, len(reads))
	res.set("query_p50_ms", percentile(sr, 0.50)/ms, len(sr))
	res.set("query_p95_ms", percentile(sr, 0.95)/ms, len(sr))
	res.set("query_p99_ms", percentile(sr, 0.99)/ms, len(sr))
	res.set("recover_s", median(recovers), len(recovers))
	res.set("heap_live_mb", median(heaps), len(heaps))
	res.info("raw_query_per_s", "1/s", float64(len(reads))/res.BusyS, len(reads))
	res.info("machine_scale", "ratio", median(scales), len(scales))
	res.finish()
	return res, nil
}

// runFrozenWorkload measures query_unique or query_repeat.
func runFrozenWorkload(name string, seed int64, sz sizes, plant string) (*result, error) {
	res := newResult(name, seed)
	run, fz, err := runFrozen(seed, sz.Frozen, name == wRepeat, nil, plant)
	if err != nil {
		return nil, err
	}
	fz.close()
	res.Reps = len(run.scales)
	res.merge(run.checks)
	res.Answers = run.hash
	res.BusyS = run.busy.Seconds()
	res.set("setup_s", median(run.setups), len(run.setups))
	queryMetrics(res, run.lat, run.scales)
	res.set("heap_live_mb", run.heapMB, 1)
	res.info("cache_hit_ratio", "ratio", run.cache.HitRatio, 0)
	res.finish()
	return res, nil
}

func runAnalyticsWorkload(seed int64, sz sizes, plant string) (*result, error) {
	res := newResult(wAnalytics, seed)
	run, _, err := runAnalytics(seed, sz.Analytics, nil, plant)
	if err != nil {
		return nil, err
	}
	res.Reps = len(run.scales)
	res.merge(run.checks)
	res.Answers = run.hash
	res.BusyS = run.busy.Seconds()
	res.set("setup_s", median(run.setups), len(run.setups))
	queryMetrics(res, run.lat, run.scales)
	res.set("heap_live_mb", run.heapMB, 1)
	for _, t := range []byte{'a', 'b', 'c', 'd'} {
		s := run.byTemplate[t].sorted()
		res.info(fmt.Sprintf("template_%c_p50_ms", t), "ms", percentile(s, 0.5)/ms, len(s))
	}
	res.finish()
	return res, nil
}

// runWorkload runs one workload without tracing.
func runWorkload(name string, seed int64, sz sizes, plant string) (*result, error) {
	switch name {
	case wFleet:
		return runFleet(seed, sz, plant)
	case wUnique, wRepeat:
		return runFrozenWorkload(name, seed, sz, plant)
	case wAnalytics:
		return runAnalyticsWorkload(seed, sz, plant)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, allWorkloads)
}
