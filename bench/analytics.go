package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"movingdb/internal/baseline"
	"movingdb/internal/db"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/server"
	"movingdb/internal/workload"
)

// analytics_sql: the paper's own kernels behind /v1/query. A read-only
// server over a static catalog answers four SQL templates; ingest,
// index, cache and the log do nothing here, so a kernel optimisation
// shows on this workload and predicts no change on the other three.

// analyticsSize fixes the catalog and the shape of one cycle.
type analyticsSize struct {
	Planes     int `json:"planes"`
	Storms     int `json:"storms"`
	StormUnits int `json:"storm_units"`
	StormVerts int `json:"storm_vertices"`
	InsideN    int `json:"inside_pairs_checked"`
	Setups     int `json:"setups"` // the set-up is repeated this often; setup_s is the median
	Cycles     int `json:"cycles"` // whole cycles of eight statements, so the mix is always the same
	HeapAfter  int `json:"heap_read_after_requests"`
}

// 80 cycles are about fifteen seconds of round trips here. The set-up
// takes a millisecond, so its median can afford many.
var analyticsFull = analyticsSize{Planes: 200, Storms: 16, StormUnits: 64, StormVerts: 12, InsideN: 64, Setups: 25, Cycles: 80, HeapAfter: 64}

// analyticsDataSeed generates the catalog (moserver's own default
// seed). Like a scale factor it belongs to the workload's definition;
// -seed drives the literals of the statements sent against it. Which
// storms happen to sit on which routes changes a statement's cost
// severalfold, and that must not pass for a difference between runs.
const analyticsDataSeed = 2000

// The cycle is deliberately uneven. With four templates of very
// different cost in equal shares, the median of the mix would sit on the
// boundary between two of them and jump from run to run; 3:3:1:1 puts
// p50 inside template d's cluster and p95 inside template a's.
var analyticsCycle = []byte{'c', 'd', 'c', 'd', 'b', 'c', 'd', 'a'}

// analyticsCatalog is the static data and its server.
type analyticsCatalog struct {
	metrics *obs.Metrics
	cat     db.Catalog
	flights []workload.Flight
	storms  []moving.MRegion
	names   []string
	handler http.Handler
}

func stormName(i int) string { return fmt.Sprintf("storm%02d", i) }

func openAnalytics(size analyticsSize, tr *tracer) (*analyticsCatalog, error) {
	ac := &analyticsCatalog{metrics: obs.New(0)}
	g := workload.New(analyticsDataSeed)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	ac.flights = g.Flights(size.Planes, 200)
	for _, f := range ac.flights {
		if err := planes.Insert(db.Tuple{f.Airline, f.ID, f.Flight}); err != nil {
			return nil, err
		}
	}
	storms := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	for i := 0; i < size.Storms; i++ {
		mr := g.Storm(0, size.StormUnits, size.StormVerts, 6)
		ac.storms = append(ac.storms, mr)
		ac.names = append(ac.names, stormName(i))
		if err := storms.Insert(db.Tuple{stormName(i), mr}); err != nil {
			return nil, err
		}
	}
	ac.cat = db.Catalog{"planes": planes, "storms": storms}
	srv, err := server.New(server.Config{Catalog: ac.cat, Metrics: ac.metrics, Cache: tracedCacheFor(tr, ac.metrics)})
	if err != nil {
		return nil, err
	}
	ac.handler = tracedHandler(tr, srv.Handler())
	return ac, nil
}

// analyticsSQL renders request i of the stream. The literals drawn from
// the seed make every request distinct, so the cache can only miss; they
// change which rows qualify, not what the kernels compute for each row.
func analyticsSQL(i int, lit *rand.Rand) (template byte, sql string) {
	template = analyticsCycle[i%len(analyticsCycle)]
	none := fmt.Sprintf("none%d_%d", i, lit.Intn(1_000_000))
	switch template {
	case 'a':
		sql = "SELECT p.id, s.name FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) AND p.id <> '" + none + "'"
	case 'b':
		sql = fmt.Sprintf("SELECT p.id, q.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < %.3f", 5+20*lit.Float64())
	case 'c':
		sql = "SELECT name, max(area(extent)) AS peak, '" + none + "' AS tag FROM storms WHERE name <> '" + none + "'"
	default:
		sql = fmt.Sprintf("SELECT p.id, duration(inside(p.flight, s.extent)) AS exposure FROM planes p, storms s WHERE s.name = '%s' AND sometimes(inside(p.flight, s.extent)) AND p.id <> '%s' ORDER BY exposure DESC LIMIT %d",
			stormName(0), none, 5+lit.Intn(10))
	}
	return template, sql
}

func queryPath(sql string) string { return "/v1/query?q=" + url.QueryEscape(sql) }

// analyticsRun is what one measured phase produced.
type analyticsRun struct {
	setups     []float64
	lat        sample
	byTemplate map[byte]sample
	busy       time.Duration
	heapMB     float64
	hash       string
	rt         rtStats
	bytes      int64
	ops        map[string]obs.OpSnapshot
	sqls       []string  // traced: the statements sent, for the replay
	handler    sample    // traced: handler time of each request
	scales     []float64 // one per cycle: its factor to the nominal machine
	checks
}

// checkInside holds one served template-a answer against the unsliced
// baseline: for a sample of (flight, storm) pairs, the pair is in the
// answer exactly when the all-pairs Inside says it is sometimes true.
func (ac *analyticsCatalog) checkInside(c *checks, body []byte, n int, plant bool) {
	var got struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		c.Attempted++
		c.fail("query answer does not parse: %v", err)
		return
	}
	served := map[string]bool{}
	for _, row := range got.Rows {
		if len(row) == 2 {
			served[fmt.Sprint(row[0], "|", row[1])] = true
		}
	}
	pairs := len(ac.flights) * len(ac.storms)
	for k := 0; k < n; k++ {
		j := (k*2654435761 + 17) % pairs // spread the sample over the cross product
		f, si := ac.flights[j/len(ac.storms)], j%len(ac.storms)
		want := baseline.FromMPoint(f.Flight).Inside(baseline.FromMRegion(ac.storms[si])).Sometimes()
		if plant && k == 0 {
			want = !want
		}
		c.Attempted++
		if served[f.ID+"|"+ac.names[si]] != want {
			c.fail("inside(%s, %s): served %v, unsliced baseline says %v", f.ID, ac.names[si], !want, want)
		}
	}
}

// runAnalytics measures the SQL workload over loopback HTTP:
// size.Setups set-ups, then size.Cycles cycles against the last of them.
// A cycle (a quarter of a second here) is also the window that shares
// one factor to the nominal machine, from a reading before each request.
func runAnalytics(seed int64, size analyticsSize, tr *tracer, plant string) (*analyticsRun, *analyticsCatalog, error) {
	cycle := len(analyticsCycle)
	run := &analyticsRun{byTemplate: map[byte]sample{}, lat: make(sample, 0, cycle*size.Cycles)}
	speed := &speedometer{}
	var ac *analyticsCatalog
	var ts *httptest.Server
	for len(run.setups) < size.Setups {
		if ts != nil {
			ts.Close()
		}
		took, scale, err := speed.timed(func() (err error) {
			if ac, err = openAnalytics(size, tr); err == nil {
				ts = httptest.NewServer(ac.handler)
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		run.setups = append(run.setups, took.Seconds()*scale)
	}
	defer ts.Close()
	cl := newLoopback(ts)
	ans := newAnswers()
	checked := false
	rt0 := readRT()
	lit := rand.New(rand.NewSource(seed))
	for i := 0; i < cycle*size.Cycles; i++ {
		// The cache keeps every answer, so the heap grows with the
		// requests served; it is read after a fixed number of them.
		if i == size.HeapAfter {
			run.heapMB = heapLiveMB(8 * cap(run.lat))
		}
		template, sql := analyticsSQL(i, lit)
		speed.sample()
		tr.nextRequest()
		r, err := cl.do(queryPath(sql), nil)
		run.expectStatus(sql, r, err, http.StatusOK)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sql, err)
		}
		run.busy += r.took
		run.lat = append(run.lat, float64(r.took))
		run.byTemplate[template] = append(run.byTemplate[template], float64(r.took))
		run.bytes += int64(len(r.body))
		if tr != nil {
			run.sqls = append(run.sqls, sql)
			run.handler = append(run.handler, float64(tr.takeHandler()))
		}
		if i < 2*cycle {
			ans.add(r.body)
		}
		if template == 'a' && !checked {
			ac.checkInside(&run.checks, r.body, size.InsideN, plant == "inside")
			checked = true
		}
		if (i+1)%cycle == 0 {
			run.scales = append(run.scales, speed.scale())
		}
	}
	run.rt = readRT().since(rt0)
	run.ops = ac.metrics.Snapshot().Operators
	run.hash = ans.sum()
	if len(run.lat) <= size.HeapAfter {
		run.heapMB = heapLiveMB(8 * cap(run.lat))
	}
	return run, ac, nil
}
