package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"movingdb/internal/ingest"
)

// toySizes do the same kinds of work as the full benchmark in well under
// a second per workload: enough objects for one index merge on
// fleet_mixed, a handful of requests everywhere else.
var toySizes = sizes{
	Fleet:     fleetSize{Objects: 60, Steps: 75, Subs: 8, PerTick: 1, Probes: 4, Episodes: 2},
	Frozen:    frozenSize{Objects: 80, Steps: 20, Setups: 2, Round: 30, UniqueRounds: 3, Distinct: 32, Perms: 1, RepeatRounds: 3, HashN: 60, CheckN: 5},
	Analytics: analyticsSize{Planes: 12, Storms: 3, StormUnits: 8, StormVerts: 6, InsideN: 12, Setups: 2, Cycles: 2, HeapAfter: 8},
}

// TestSecondsOnlyScalesRepetitions: -seconds picks whole numbers of
// episodes and rounds before the run starts, and touches nothing else.
func TestSecondsOnlyScalesRepetitions(t *testing.T) {
	if got := fullSizes.lasting(defaultSeconds); got != fullSizes {
		t.Errorf("the default run length must leave the sizes alone: %+v", got)
	}
	double, short := fullSizes.lasting(2*defaultSeconds), fullSizes.lasting(0.01)
	if double.Fleet.Episodes != 2*fullSizes.Fleet.Episodes || double.Frozen.UniqueRounds != 2*fullSizes.Frozen.UniqueRounds ||
		double.Frozen.RepeatRounds != 2*fullSizes.Frozen.RepeatRounds || double.Analytics.Cycles != 2*fullSizes.Analytics.Cycles {
		t.Errorf("twice the time must be twice the repetitions: %+v", double)
	}
	if short.Fleet.Episodes != 3 || short.Frozen.UniqueRounds != 2 || short.Frozen.RepeatRounds != 2 || short.Analytics.Cycles != 8 {
		t.Errorf("a short run must keep the floors: %+v", short)
	}
	double.Fleet.Episodes, double.Frozen.UniqueRounds, double.Frozen.RepeatRounds, double.Analytics.Cycles =
		fullSizes.Fleet.Episodes, fullSizes.Frozen.UniqueRounds, fullSizes.Frozen.RepeatRounds, fullSizes.Analytics.Cycles
	if double != fullSizes {
		t.Errorf("-seconds changed something other than repetition counts: %+v", double)
	}
	// The floors keep the hashed answers and the heap reading inside the run.
	if f := short.Frozen; f.UniqueRounds*f.Round < f.HashN || f.RepeatRounds*f.Perms*f.Distinct < f.HashN {
		t.Errorf("shortest run serves fewer requests than answers_fnv64a hashes: %+v", f)
	}
	if a := short.Analytics; a.Cycles*len(analyticsCycle) < a.HeapAfter {
		t.Errorf("shortest run ends before the heap is read: %+v", a)
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{501, 0.95, true},  // p99 would rest on 5 samples
		{4509, 0.99, true}, // p99.9 would rest on 4
		{400, 0.95, true},  // 20 beyond p95, 4 beyond p99
		{200, 0.95, true},  // exactly ten beyond
		{199, 0.90, true},  // nine beyond p95
		{100, 0.90, true},  // exactly ten beyond p90
		{40, 0.75, true},   // exactly ten beyond p75
		{39, 0, false},     // nothing qualifies
		{100000, 0.999, true},
	} {
		got, ok := tailLevel(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}.sorted()
	for p, want := range map[float64]float64{0.5: 3, 0.2: 1, 0.21: 2, 1: 5, 0.95: 5} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

func TestClassifyTick(t *testing.T) {
	base := ingest.Stats{IndexMerges: 3, WALCheckpoints: 1}
	merged, ckpt, both := base, base, base
	merged.IndexMerges++
	ckpt.WALCheckpoints++
	both.IndexMerges++
	both.WALCheckpoints++
	for _, c := range []struct {
		after ingest.Stats
		want  tickClass
	}{{base, tickPlain}, {merged, tickMerge}, {ckpt, tickCkpt}, {both, tickCkpt}} {
		if got := classifyTick(base, c.after); got != c.want {
			t.Errorf("classifyTick(%+v) = %s, want %s", c.after, tickClassNames[got], tickClassNames[c.want])
		}
	}
}

func TestStallShareWeighsByDuration(t *testing.T) {
	ticks := make([]float64, 100)
	for i := range ticks {
		ticks[i] = 2
	}
	ticks[7], ticks[50] = 100, 21 // one tick 50 × the median, one just past 10 ×
	want := 121.0 / (98*2 + 121)
	if got := stallShare(ticks); math.Abs(got-want) > 1e-12 {
		t.Errorf("stallShare = %v, want %v", got, want)
	}
	ticks[50] = 20 // exactly 10 × the median is not a stall
	if got, want := stallShare(ticks), 100.0/(98*2+120); math.Abs(got-want) > 1e-12 {
		t.Errorf("stallShare = %v, want %v", got, want)
	}
}

// TestIQRShareMatchesPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance harness uses.
func TestIQRShareMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 9}, (12.5 - 9.5) / 11},
		{[]float64{4, 4}, 0},
	} {
		if got := iqrShare(c.vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestSpeedometerScalesToTheNominalMachine(t *testing.T) {
	s := &speedometer{}
	if s.scale() != 1 {
		t.Error("no readings must mean no correction")
	}
	// A machine on which the kernel takes twice the nominal time is half
	// as fast: times measured on it count half.
	s.readings = []float64{2 * float64(refNominal), 2.2 * float64(refNominal), 1.9 * float64(refNominal)}
	if got := s.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale = %v, want 0.5", got)
	}
	if len(s.readings) != 0 {
		t.Error("scale must start a new window")
	}
	if took, scale, err := s.timed(func() error { return nil }); err != nil || took < 0 || scale <= 0 || len(s.readings) != 0 {
		t.Errorf("timed = %v, %v, %v with %d readings left", took, scale, err, len(s.readings))
	}
}

// exactCounts are the numbers that must repeat exactly for one seed.
func exactCounts(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"index_merges", "epochs_published", "wal_checkpoints", "live_events", "cache_hit_ratio"} {
		if m, ok := res.Info[k]; ok {
			out[k] = m.Value
		}
	}
	if m, ok := res.EndToEnd["wal_resident_bytes_per_obs"]; ok {
		out["wal_resident_bytes_per_obs"] = m.Value
	}
	return out
}

// TestSeedIsTheOnlyVariation runs every workload twice with one seed and
// once with another: same seed, same counts and answers; other seed,
// other answers.
func TestSeedIsTheOnlyVariation(t *testing.T) {
	for _, w := range allWorkloads {
		a, err := runWorkload(w, 1, toySizes, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, 1, toySizes, "")
		if err != nil {
			t.Fatal(err)
		}
		c, err := runWorkload(w, 2, toySizes, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{a, b, c} {
			if r.Failed != 0 {
				t.Errorf("%s seed %d: %d of %d checks failed: %v", w, r.Seed, r.Failed, r.Attempted, r.Failures)
			}
		}
		if a.Answers != b.Answers || !reflect.DeepEqual(exactCounts(a), exactCounts(b)) || a.Attempted != b.Attempted {
			t.Errorf("%s: two runs of seed 1 differ: %s %v (%d ops) vs %s %v (%d ops)", w, a.Answers, exactCounts(a), a.Attempted, b.Answers, exactCounts(b), b.Attempted)
		}
		if a.Answers == c.Answers {
			t.Errorf("%s: seeds 1 and 2 gave the same answers %s", w, a.Answers)
		}
		if w == wFleet && a.Info["index_merges"].Value < 1 {
			t.Error("toy fleet_mixed must see at least one index merge, or the count proves nothing")
		}
		for _, d := range endToEnd {
			if _, ok := a.EndToEnd[d.Name]; ok != d.on(w) {
				t.Errorf("%s: metric %s reported = %v, catalogue says %v", w, d.Name, ok, d.on(w))
			}
		}
	}
}

// TestPlantedWrongAnswerFails feeds a wrong answer to each oracle-backed
// check and requires the run to report it.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, c := range []struct{ workload, plant string }{
		{wFleet, "window"}, {wUnique, "window"}, {wRepeat, "window"}, {wAnalytics, "inside"},
	} {
		res, err := runWorkload(c.workload, 1, toySizes, c.plant)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.EndToEnd["failed_share"].Value <= 0 {
			t.Errorf("%s with a planted wrong %s answer: no check failed", c.workload, c.plant)
		}
	}
}

// TestLayerTableSelfTimes: self is total minus children, and a child
// that outran its parent shows as overrun, not as a negative self time.
func TestLayerTableSelfTimes(t *testing.T) {
	lt := &layerTable{}
	lt.add("client", "", 12, "")
	lt.add("server", "client", 10, "")
	lt.add("cache", "server", 1, "")
	lt.add("ingest", "server", 6, "")
	lt.add("index", "ingest", 4, "")
	if over := lt.finish("server"); over != 0 {
		t.Errorf("consistent table: overrun %v, want 0", over)
	}
	for layer, want := range map[string]float64{"client": 2, "server": 3, "cache": 1, "ingest": 2, "index": 4} {
		if got := lt.row(layer).SelfS; got != want {
			t.Errorf("self(%s) = %v, want %v", layer, got, want)
		}
	}
	lt = &layerTable{}
	lt.add("server", "", 10, "")
	lt.add("ingest", "server", 6, "")
	lt.add("index", "ingest", 8, "") // replayed slower than the traced pass ran its parent
	if over := lt.finish("server"); math.Abs(over-0.2) > 1e-12 || lt.row("ingest").SelfS != 0 {
		t.Errorf("overrun %v (want 0.2), self(ingest) %v (want 0)", over, lt.row("ingest").SelfS)
	}
}

// TestTracedRunDecomposes requires, per workload, every per-layer metric
// by name and a trace file that parses and holds spans with parents.
func TestTracedRunDecomposes(t *testing.T) {
	dir := t.TempDir()
	for _, w := range allWorkloads {
		res, err := runTraced(w, 1, toySizes, dir)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %v", w, res.Failures)
		}
		for _, d := range perLayer {
			if _, ok := res.Layers[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w, d.Name)
			}
		}
		if s := res.Layers["trace.replay_overrun_share"].Value; s < 0 || s > 1 {
			t.Errorf("%s: replay overrun %.3f of the handler time", w, s)
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w, err)
		}
		nested := 0
		for _, s := range tf.Spans {
			if s.EndNS < s.StartNS {
				t.Fatalf("%s: span %+v ends before it starts", w, s)
			}
			if s.Parent >= 0 {
				nested++
			}
		}
		if len(tf.Spans) == 0 || nested == 0 || len(tf.Layers) < 3 {
			t.Errorf("%s: trace has %d spans (%d nested), %d layer rows", w, len(tf.Spans), nested, len(tf.Layers))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_per_s", Better: "higher", Bound: 0.10}
	failed := metricDef{Name: "failed_share", Better: "lower", Bound: 0}
	tight := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.7, v * 0.9, v, v * 1.2, v * 1.4} }
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     verdict
	}{
		{"same", lower, tight(10), tight(10), unchanged},
		{"within bound", lower, tight(10), tight(10.9), unchanged},
		{"slower", lower, tight(10), tight(11.2), regressed},
		{"faster", lower, tight(10), tight(8.5), improved},
		{"rate down", higher, tight(1000), tight(880), regressed},
		{"rate up", higher, tight(1000), tight(1200), improved},
		{"too noisy to call", lower, noisy(10), noisy(10.5), unresolved},
		{"noisy but clearly worse", lower, noisy(10), noisy(20), regressed},
		{"failures appear", failed, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, regressed},
		{"no failures", failed, []float64{0, 0, 0}, []float64{0, 0, 0}, unchanged},
	} {
		if got := judge(c.def, c.old, c.new).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	var buf bytes.Buffer
	old := &resultFile{Runs: []map[string]*result{{wUnique: {EndToEnd: map[string]metric{"query_p50_ms": {Value: 1}, "failed_share": {Value: 0}}}}}}
	cur := &resultFile{Runs: []map[string]*result{{wUnique: {EndToEnd: map[string]metric{"query_p50_ms": {Value: 2}, "failed_share": {Value: 0}}}}}}
	if code := printComparison(&buf, compareResults(old, cur)); code != 1 {
		t.Errorf("a regressed row must exit 1, got %d:\n%s", code, buf.String())
	}
	if code := printComparison(&buf, compareResults(old, old)); code != 0 {
		t.Errorf("identical files must exit 0, got %d", code)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the Go
// catalogue from drifting apart: the file is `bench -describe`, byte for
// byte, and what it lists is what the harness's contract asks for.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	contract := contractMetrics()
	if contract[0].Name != "setup_s" || contract[0].Unit != "s" || contract[0].Better != "lower" {
		t.Errorf("setup_s must be listed, in seconds, lower is better: %+v", contract[0])
	}
	for _, d := range contract {
		if len(d.Workloads) != len(allWorkloads) || d.Harness < d.Bound || d.Harness > contract[0].Harness || contract[0].Harness > 0.25 {
			t.Errorf("%s: listed for the harness, so every workload must report it, and its bound there must lie between the one -compare uses and setup_s's, at most 0.25: %+v", d.Name, d)
		}
	}
	if len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the harness's limits", len(perLayer), len(data))
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
