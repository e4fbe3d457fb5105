package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"movingdb/internal/ingest"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/workload"
)

// query_unique and query_repeat: the same frozen data and the same
// route mix, once with every request distinct (the result cache can only
// miss; index search, epoch refinement and JSON encoding do the work)
// and once drawn from 256 URLs (the cache always hits; decode,
// canonicalisation, cache lookup and metrics recording do the work).
// Requests go straight into the handler: at ~6 µs a hit, loopback TCP
// would be most of the measurement and none of this repo's code.

// frozenSize fixes the preloaded data and the shape of the traffic.
type frozenSize struct {
	Objects      int `json:"objects"`
	Steps        int `json:"steps"`
	Setups       int `json:"setups"`             // the set-up is repeated this often; setup_s is the median
	Round        int `json:"requests_per_round"` // unique: generated and run in rounds of this many
	UniqueRounds int `json:"unique_rounds"`
	Distinct     int `json:"distinct_urls"` // repeat: size of the URL working set
	Perms        int `json:"permutations_per_round"`
	RepeatRounds int `json:"repeat_rounds"`
	HashN        int `json:"hashed_answers"` // the first HashN answers form answers_fnv64a
	CheckN       int `json:"window_check_every"`
}

// 40 rounds of 1500 distinct requests, or 400 rounds of 16 permutations of
// the 256 URLs, are about fifteen seconds of handler time here.
var frozenFull = frozenSize{Objects: 1000, Steps: 60, Setups: 5, Round: 1500, UniqueRounds: 40, Distinct: 256, Perms: 16, RepeatRounds: 400, HashN: 3000, CheckN: 500}

// frozenDataSeed generates the preloaded data. The data set belongs to
// the workload's definition, like a scale factor; -seed drives the
// requests sent against it. A run's cost then varies with the machine,
// not with which trajectories a seed happened to draw.
const frozenDataSeed = 20000

// frozenServer is a pipeline preloaded through its own ingest path and
// then left alone, behind the server's handler.
type frozenServer struct {
	metrics *obs.Metrics
	pipe    *ingest.Pipeline
	handler http.Handler
	span    float64      // time covered by the data
	scan    windowOracle // built on first use
}

// openFrozen generates the stream, ingests it one step per batch and
// flushes. MaxAge is out of reach so that no timer decides how the
// stream is cut into flushes: the index built is always the same.
func openFrozen(size frozenSize, tr *tracer) (*frozenServer, error) {
	fz := &frozenServer{metrics: obs.New(0), span: float64(size.Steps)}
	stream := toObservations(workload.New(frozenDataSeed).ObservationStream("obj", size.Objects, size.Steps, 0, 1, 8))
	var err error
	fz.pipe, err = ingest.Open(ingest.Config{MaxAge: time.Hour, MaxQueued: len(stream) + 1, Metrics: fz.metrics})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(stream); lo += size.Objects {
		if _, err := fz.pipe.Ingest(stream[lo : lo+size.Objects]); err != nil {
			fz.pipe.Close()
			return nil, err
		}
	}
	fz.pipe.Flush()
	srv, err := server.New(server.Config{Ingest: fz.pipe, Metrics: fz.metrics, Cache: tracedCacheFor(tr, fz.metrics)})
	if err != nil {
		fz.pipe.Close()
		return nil, err
	}
	fz.handler = tracedHandler(tr, srv.Handler())
	return fz, nil
}

func (fz *frozenServer) close() { fz.pipe.Close() }

// frozenRun is what one measured phase over frozen data produced.
type frozenRun struct {
	setups  []float64 // seconds on the nominal machine, one per set-up repetition
	lat     sample
	busy    time.Duration
	heapMB  float64
	hash    string
	cache   obs.CacheSnapshot
	rt      rtStats
	bytes   int64
	byRoute map[string]sample
	scales  []float64 // one per round: that round's factor to the nominal machine
	checks
}

// oracle materialises the frozen objects once.
func (fz *frozenServer) oracle() windowOracle {
	if fz.scan.objs == nil {
		fz.scan = oracleOf(fz.pipe.Epoch())
	}
	return fz.scan
}

// runFrozen measures one of the two frozen workloads: size.Setups
// set-ups, then the workload's rounds against the last of them.
func runFrozen(seed int64, size frozenSize, repeat bool, tr *tracer, plant string) (*frozenRun, *frozenServer, error) {
	run := &frozenRun{byRoute: map[string]sample{}}
	speed := &speedometer{}
	var fz *frozenServer
	for len(run.setups) < size.Setups {
		if fz != nil {
			fz.close()
		}
		took, scale, err := speed.timed(func() (err error) {
			fz, err = openFrozen(size, tr)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		run.setups = append(run.setups, took.Seconds()*scale)
	}
	drv := newInproc(fz.handler)
	ans := newAnswers()
	done, windows := 0, 0
	wantCache := "miss"
	if repeat {
		wantCache = "hit"
	}
	roundLen, rounds := size.Round, size.UniqueRounds
	if repeat {
		roundLen, rounds = size.Perms*size.Distinct, size.RepeatRounds
	}
	run.lat = make(sample, 0, roundLen*rounds)
	refEvery := max(roundLen/8, 1) // eight reference readings a round
	serve := func(q readQuery, req *http.Request) {
		if done%refEvery == 0 {
			speed.sample()
		}
		tr.nextRequest()
		r := drv.serve(req)
		run.busy += r.took
		run.lat = append(run.lat, float64(r.took))
		run.bytes += int64(len(r.body))
		run.expectStatus(q.path, r, nil, http.StatusOK)
		if r.cache != wantCache {
			run.fail("%s: X-MO-Cache %q, want %q", q.path, r.cache, wantCache)
		}
		if tr != nil {
			route := req.URL.Path
			run.byRoute[route] = append(run.byRoute[route], float64(r.took))
		}
		if done < size.HashN {
			ans.add(r.body)
		}
		if q.window != nil {
			if windows%size.CheckN == 0 {
				fz.oracle().check(&run.checks, *q.window, r.body, plant == "window" && windows == 0)
			}
			windows++
		}
		done++
	}
	// round serves one round and takes its reading of the machine.
	round := func(qs []readQuery, reqs []*http.Request) {
		for i := range qs {
			serve(qs[i], reqs[i])
		}
		run.scales = append(run.scales, speed.scale())
	}

	rt0, c0 := readRT(), fz.metrics.Snapshot().Cache
	if repeat {
		set := genReads(workload.New(seed+5), size.Distinct, fz.span)
		setReqs := make([]*http.Request, len(set))
		for i, q := range set {
			setReqs[i] = httptest.NewRequest(http.MethodGet, q.path, nil)
			// Warm the cache outside the measurement: users of a cache
			// that fits do not pay the first miss on every run.
			if r := drv.serve(setReqs[i]); r.status != http.StatusOK {
				run.fail("warm-up %s: status %d", q.path, r.status)
			}
		}
		rt0, c0 = readRT(), fz.metrics.Snapshot().Cache
		order := rand.New(rand.NewSource(seed + 6))
		qs, reqs := make([]readQuery, 0, size.Perms*len(set)), make([]*http.Request, 0, size.Perms*len(set))
		for r := 0; r < rounds; r++ {
			qs, reqs = qs[:0], reqs[:0]
			for p := 0; p < size.Perms; p++ {
				for _, i := range order.Perm(len(set)) {
					qs, reqs = append(qs, set[i]), append(reqs, setReqs[i])
				}
			}
			round(qs, reqs)
		}
	} else {
		qg := workload.New(seed + 4)
		reqs := make([]*http.Request, size.Round)
		for r := 0; r < rounds; r++ {
			qs := genReads(qg, size.Round, fz.span)
			for i, q := range qs {
				reqs[i] = httptest.NewRequest(http.MethodGet, q.path, nil)
			}
			round(qs, reqs)
		}
	}
	run.rt = readRT().since(rt0)
	run.cache = subCache(fz.metrics.Snapshot().Cache, c0)
	run.hash = ans.sum()
	run.heapMB = heapLiveMB(8 * cap(run.lat))
	return run, fz, nil
}
