// Command mosim is the deterministic fleet simulator and chaos harness
// for the movingdb stack. It stands up the real HTTP server in-process,
// streams seeded fleets (delivery trucks on a city grid, flights on
// airport legs, drifting storms) through /v1/ingest while concurrent
// clients issue the full query mix, and cross-checks every response
// against an offline oracle built from the same seed. A chaos profile
// flips failpoints mid-run and the invariant checker asserts the
// degraded-mode contract end to end.
//
// Usage:
//
//	mosim -seed 42 -ticks 200 -chaos mixed
//	mosim -fleet trucks=500,storms=20 -duration 30s -chaos wal-torn
//	mosim -chaos list
//
// The verdict prints as JSON on stdout; the exit status is non-zero on
// any invariant violation. The same seed and profile reproduce a
// byte-identical event log and verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/sim"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "deterministic seed for fleets, queries and subscriptions")
		ticks      = flag.Int("ticks", 0, "number of simulation ticks (default 60, or derived from -duration)")
		tickPeriod = flag.Duration("tick-period", 50*time.Millisecond, "wall-clock pacing per tick when -duration is set")
		duration   = flag.Duration("duration", 0, "pace the run over this wall-clock duration instead of running flat-out")
		fleet      = flag.String("fleet", "", "fleet sizes, e.g. trucks=12,flights=6,storms=3")
		subs       = flag.Int("subs", 0, "standing subscriptions to open (default 8)")
		chaos      = flag.String("chaos", "", "chaos profile name, or 'list' to print the catalog")
		verbose    = flag.Bool("v", false, "print the per-tick event log")
	)
	flag.Parse()

	if *chaos == "list" {
		listChaos()
		return
	}

	cfg := sim.Config{Seed: *seed, Ticks: *ticks, Subs: *subs}
	if err := parseFleet(*fleet, &cfg); err != nil {
		fatal(err)
	}
	if *duration > 0 {
		cfg.Paced = true
		cfg.TickPeriod = *tickPeriod
		if cfg.Ticks == 0 && *tickPeriod > 0 {
			cfg.Ticks = int(*duration / *tickPeriod)
		}
	}

	if *chaos != "" {
		profile, err := sim.LookupProfile(*chaos)
		if err != nil {
			fatal(err)
		}
		cfg.Profile = profile
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, line := range res.Log {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	out, _ := json.MarshalIndent(res.Verdict, "", "  ")
	fmt.Println(string(out))
	if !res.Verdict.Passed() {
		os.Exit(1)
	}
}

// listChaos prints the chaos profile catalog and the failpoint sites
// they may reference, then exits cleanly.
func listChaos() {
	fmt.Println("chaos profiles:")
	for _, p := range sim.Profiles() {
		fmt.Printf("  %-14s %s\n", p.Name, p.Desc)
		for _, fl := range p.Flips {
			action := "clear"
			if fl.Spec != nil {
				action = "arm " + fl.Spec.Mode.String()
				if fl.Spec.Times > 0 {
					action += fmt.Sprintf(" x%d", fl.Spec.Times)
				}
			}
			fmt.Printf("  %14s @%3.0f%%  %-13s %s\n", "", fl.Frac*100, fl.Site, action)
		}
	}
	fmt.Println("\nfailpoint sites (profiles may only reference these):")
	for _, s := range fault.Sites() {
		fmt.Printf("  %-14s [%s] %s\n", s.Name, s.Layer, s.Desc)
	}
}

// parseFleet applies a "trucks=N,flights=N,storms=N" spec onto cfg.
func parseFleet(spec string, cfg *sim.Config) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("mosim: bad -fleet entry %q, want kind=count", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("mosim: bad -fleet count %q for %s", val, key)
		}
		switch key {
		case "trucks":
			cfg.Trucks = n
		case "flights":
			cfg.Flights = n
		case "storms":
			cfg.Storms = n
		default:
			return fmt.Errorf("mosim: unknown -fleet kind %q (want trucks, flights or storms)", key)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosim:", err)
	os.Exit(1)
}
