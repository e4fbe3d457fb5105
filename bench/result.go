package main

import (
	"fmt"
	"runtime"

	"movingdb/internal/obs"
)

// checks counts what a run attempted and what failed: every request
// whose status was wrong, every transport error and every correctness
// sample that disagreed with its oracle. failed ÷ attempted is
// failed_share.
type checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for the report
}

func (c *checks) fail(format string, args ...any) {
	c.Failed++
	c.keep(fmt.Sprintf(format, args...))
}

func (c *checks) keep(failure string) {
	if len(c.Failures) < 8 {
		c.Failures = append(c.Failures, failure)
	}
}

// expectStatus counts one operation and fails it unless it completed
// with the wanted status.
func (c *checks) expectStatus(what string, r reply, err error, want int) {
	c.Attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", what, err)
	case r.status != want:
		c.fail("%s: status %d, want %d", what, r.status, want)
	}
}

func (c *checks) merge(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	for _, f := range o.Failures {
		c.keep(f)
	}
}

// metric is one reported number. N is the number of samples or
// repetitions behind it (0 for a plain count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Reps     int               `json:"repetitions"`
	BusyS    float64           `json:"measured_s"`
	EndToEnd map[string]metric `json:"end_to_end"`
	Info     map[string]metric `json:"info,omitempty"`
	Layers   map[string]metric `json:"per_layer,omitempty"`
	Answers  string            `json:"answers_fnv64a"`
	Notes    []string          `json:"notes,omitempty"`
	checks
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, EndToEnd: map[string]metric{}, Info: map[string]metric{}}
}

// set records an end-to-end metric. One the catalogue does not bound
// on this workload (see the demotions in catalogue.go) is still
// measured and printed, as information.
func (r *result) set(name string, v float64, n int) {
	def, ok := endToEndByName[name]
	if !ok {
		panic("bench: unknown end-to-end metric " + name)
	}
	if !def.on(r.Workload) {
		r.info(name, def.Unit, v, n)
		return
	}
	r.EndToEnd[name] = metric{Value: v, Unit: def.Unit, N: n}
}

func (r *result) info(name, unit string, v float64, n int) {
	r.Info[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) layer(name string, v float64) {
	def, ok := perLayerByName[name]
	if !ok {
		panic("bench: unknown per-layer metric " + name)
	}
	if r.Layers == nil {
		r.Layers = map[string]metric{}
	}
	r.Layers[name] = metric{Value: v, Unit: def.Unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// processHeapBase is the live heap before the benchmark has built
// anything: the runtime's own, and the reference kernel's buffers.
var processHeapBase = func() uint64 {
	theReference.run()
	return heapAlloc()
}()

// heapLiveMB is the heap the system under test holds at the end of a
// measured phase, in MiB: live bytes after a collection, less the
// process's baseline and less what the driver itself still holds
// (driverBytes: its latency log). The caller releases the generator's
// inputs first.
func heapLiveMB(driverBytes int) float64 {
	live := int64(heapAlloc()) - int64(processHeapBase) - int64(driverBytes)
	return float64(max(live, 0)) / (1 << 20)
}

// rtStats is the Go runtime's view of a measured phase.
type rtStats struct {
	mallocs, bytes uint64
	gcCycles       uint32
	pauseNS        uint64
}

func readRT() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (a rtStats) since(b rtStats) rtStats {
	return rtStats{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcCycles: a.gcCycles - b.gcCycles, pauseNS: a.pauseNS - b.pauseNS}
}

// subCache is the cache activity between two snapshots of one registry.
func subCache(a, b obs.CacheSnapshot) obs.CacheSnapshot {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Puts -= b.Puts
	a.Evictions -= b.Evictions
	a.HitRatio = 0
	if lookups := a.Hits + a.Misses; lookups > 0 {
		a.HitRatio = float64(a.Hits) / float64(lookups)
	}
	return a
}
