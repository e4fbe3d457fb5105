package main

import (
	"log"

	"movingdb/internal/fault"
	"movingdb/internal/ingest"
	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// buildWALMedium returns the WAL medium for the ingest pipeline; nil
// selects the pipeline's default in-memory page store. A non-empty
// -failpoints spec wraps the page store in the deterministic
// fault-injection layer, seeded with the workload seed so probabilistic
// fault schedules replay identically run to run. One injector backs
// every site: the wal.* sites trip inside the wrapping fault.Store, the
// hook sites (epoch.publish, live.notify, sse.write) through fault.Arm.
// Trips are counted per site in the metrics registry (the "faults"
// section of /v1/metrics).
func buildWALMedium(failpoints string, seed int64, metrics *obs.Metrics, logger *log.Logger) (ingest.PageIO, error) {
	if failpoints == "" {
		return nil, nil
	}
	specs, err := fault.ParseSpecs(failpoints)
	if err != nil {
		return nil, err
	}
	in := fault.New(seed)
	in.OnTrip(metrics.RecordFaultTrip)
	for site, spec := range specs {
		in.Set(site, spec)
		logger.Printf("failpoint armed: %s=%s", site, spec.Mode)
	}
	fault.Arm(in)
	return fault.NewStore(in, "wal", storage.NewPageStore()), nil
}
