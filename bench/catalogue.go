package main

import (
	"encoding/json"
	"slices"
)

// The catalogue: every workload and metric by its fixed name. Later
// issues name a metric and a workload by these names, BENCHMARK.json
// lists the same entries (a test holds the two together), and -compare
// reads the bounds from here.

const (
	wFleet     = "fleet_mixed"
	wUnique    = "query_unique"
	wRepeat    = "query_repeat"
	wAnalytics = "analytics_sql"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wFleet, "write path does the work and reads run beside writes: every tick publishes an epoch, so the cache never hits and the index delta is non-empty"},
	{wUnique, "frozen data, every request distinct: the cache can only miss, so index search, epoch refinement and JSON encoding do the work"},
	{wRepeat, "same data and mix from 256 URLs: the cache always hits, so decode, canonicalisation, cache lookup and metrics recording do the work"},
	{wAnalytics, "SQL over a static catalog: the paper's kernels (inside, distance, area, refinement partition) do the work; ingest, index, cache and log do none"},
}

var allWorkloads = []string{wFleet, wUnique, wRepeat, wAnalytics}

// metricDef describes one metric. Bound is the share of the old median
// by which the new one may be worse before -compare calls it a
// regression. Times and rates are scaled to the nominal machine (see
// reference.go); counts, bytes and shares are as counted. Harness is the
// bound BENCHMARK.json declares, 0 for a metric it does not list: its
// harness wants every listed metric from every workload, so only those
// bounded on all four qualify.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Workloads []string
	Harness   float64
	About     string
}

func (d metricDef) on(workload string) bool { return slices.Contains(d.Workloads, workload) }

// Bounds: 0.10 for timings, rates and memory, 0.02 for the space count,
// none at all for failures. setup_s alone has 0.25: a set-up is one to a
// few operations per repetition, not thousands.
//
// Demotions. A metric that did not repeat within a tenth on the machine
// that defined the benchmark is not given a wider bound; it is taken off
// the workloads where it failed to. There it is still measured and
// printed by every run, as information, and the traced run reports it
// as a per-layer metric. So far: query_p99_ms, on all three workloads
// that have the samples for it (over ten runs with ten seeds it spread
// by up to 12–70 % of its median: it is where a read meets the collector
// or, on fleet_mixed, a merge), and recover_s (up to 16 %: one half-second
// operation per episode). query_p95_ms is bounded where p95 is the
// highest percentile with ten samples beyond it, on analytics_sql, and
// printed as information elsewhere.
//
// The two gates. -compare has three verdicts: a metric whose runs spread
// wider than its bound is unresolved, and whoever reads that measures
// again; so it can hold the tenth. The harness behind BENCHMARK.json has
// two: it rejects a change whose median is worse than its parent's by
// more than the declared bound, and accepts a benchmark only if that
// bound is three times the spread of ten runs with ten seeds. Over
// a dozen such batches here the rate and the median latency spread by 1 to
// 4 % of their medians in quiet spells and up to 8.5 % while the host
// switched speed (fleet_mixed once read 17 % slower through a whole
// batch), so under its rule, and so that a spell of the host does not
// reject an innocent change, they are declared to it at 0.20; setup_s at
// 0.25, the largest, as it asks.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, allWorkloads, 0.25, "generation, preload and server construction: everything before the first measured operation; median of the run's set-ups"},
	{"ingest_obs_per_s", "1/s", "higher", 0.10, []string{wFleet}, 0, "observations ÷ time in the mixed loop, reads included"},
	{"ingest_ack_p50_ms", "ms", "lower", 0.10, []string{wFleet}, 0, "POST /v1/ingest?sync=1 round trip, median"},
	{"ingest_ack_p95_ms", "ms", "lower", 0.10, []string{wFleet}, 0, "POST round trip, 95th percentile of all ticks of the run"},
	{"ingest_stall_share", "ratio", "lower", 0.10, []string{wFleet}, 0, "time in ticks slower than 10 × the median tick ÷ total tick time, all ticks of the run"},
	{"query_per_s", "1/s", "higher", 0.10, allWorkloads, 0.20, "reads ÷ measured time (on fleet_mixed the writes share that time: it is the mixed loop's rate, ingest_obs_per_s × 9/570)"},
	{"query_p50_ms", "ms", "lower", 0.10, allWorkloads, 0.20, "read latency, median (on fleet_mixed: reads beside writes)"},
	{"query_p95_ms", "ms", "lower", 0.10, []string{wAnalytics}, 0, "read latency, 95th percentile of all reads of the run"},
	{"query_p99_ms", "ms", "lower", 0.10, nil, 0, "read latency, 99th percentile of all reads of the run: demoted on fleet_mixed, query_unique and query_repeat, see above"},
	{"recover_s", "s", "lower", 0.10, nil, 0, "ingest.Open on the log the episode left behind: demoted on fleet_mixed, see above"},
	{"wal_resident_bytes_per_obs", "B", "lower", 0.02, []string{wFleet}, 0, "log pages resident at the end × page size ÷ observations (repeats exactly)"},
	{"heap_live_mb", "MiB", "lower", 0.10, allWorkloads, 0.10, "live heap after a collection at the end of the measured phase, over the heap before set-up, generator inputs released"},
	{"failed_share", "ratio", "lower", 0, allWorkloads, 0, "non-2xx, transport errors and failed correctness samples ÷ operations attempted; may not rise at all"},
}

var endToEndByName = byName(endToEnd)

func byName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

func contractMetrics() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Harness > 0 {
			out = append(out, d)
		}
	}
	return out
}

// benchmarkJSON renders BENCHMARK.json from the catalogue, so that the
// file at the root of the repository is written, not typed.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range contractMetrics() {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Harness})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from string and number literals
	}
	return append(data, '\n')
}
