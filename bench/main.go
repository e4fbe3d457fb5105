// Command bench is the repository's benchmark: four seeded workloads
// over the served moving-objects store, thirteen end-to-end metrics with
// fixed regression bounds, and a traced run that attributes time to the
// repository's packages from outside. See README.md in this directory.
//
//	bash bench/run.sh -seed 1                      all workloads, every end-to-end metric, checks
//	bash bench/run.sh -seed 1 -trace 1             the traced run: per-layer metrics, bench/out/trace-*.json
//	bash bench/run.sh -workload query_unique ...   one workload; the last line is one JSON object
//	bash bench/run.sh -runs 5 -out new.json        keep the numbers for -compare
//	bash bench/run.sh -compare old.json new.json   one row per workload and metric; non-zero on a regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// procs is the GOMAXPROCS every measurement runs at. One closed-loop
// client means client and server never run at the same time, so a second
// P serves only the collector and the live notifier — and on the shared
// two-core sandbox it made things worse: measured here, analytics_sql ran
// a quarter slower on two Ps than on one (a collection every few
// milliseconds, each paying cross-CPU wake-ups) and its rate wandered
// between 13 and 26 queries a second from run to run where one P held
// 30 to 36. State it with any number taken from this benchmark.
const procs = 1

func main() {
	workload := flag.String("workload", "", "run one workload and end with one JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the only source of variation")
	seconds := flag.Float64("seconds", defaultSeconds, "scales the number of episodes and rounds per workload, which are sized for the default")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, spans in bench/out/); 0: end-to-end metrics")
	runs := flag.Int("runs", 1, "repeat the whole run this many times (for -out)")
	out := flag.String("out", "", "write the results as JSON, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	plant := flag.String("plant", "", "test hook: feed a wrong answer to a correctness check (window, inside)")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	names := allWorkloads
	if *workload != "" {
		names = []string{*workload}
	}
	dir := traceDir()
	if !(*seconds > 0) {
		fatal(2, "bench: -seconds must be positive")
	}
	sz := fullSizes.lasting(*seconds)
	file := resultFile{Machine: machine(), Seed: *seed, Seconds: *seconds, Sizes: sz}
	failed := false
	for r := 0; r < *runs; r++ {
		set := map[string]*result{}
		for _, w := range names {
			var res *result
			var err error
			if *trace != 0 {
				res, err = runTraced(w, *seed, sz, dir)
			} else {
				res, err = runWorkload(w, *seed, sz, *plant)
			}
			if err != nil {
				fatal(2, "bench: %s: %v", w, err)
			}
			checkPinned(res)
			printResult(os.Stdout, res)
			failed = failed || res.Failed > 0
			set[w] = res
		}
		file.Runs = append(file.Runs, set)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(2, "bench: write %s: %v", *out, err)
		}
	}
	if *workload != "" {
		// The harness reads the last line of standard output.
		printContractLine(os.Stdout, file.Runs[len(file.Runs)-1][*workload], *trace != 0)
		return
	}
	if failed {
		fatal(1, "bench: a correctness check failed")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// traceDir is out/ inside the benchmark's directory, whether the
// command runs from the repository root or from bench/ itself.
func traceDir() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return "bench/out"
	}
	return "out"
}

// machineInfo records where numbers were taken.
type machineInfo struct {
	NProc int    `json:"nproc"`
	Procs int    `json:"gomaxprocs"`
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
}

func machine() machineInfo {
	return machineInfo{NProc: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// resultFile is what -out writes and -compare reads: every run of every
// workload, with the sizes and the machine that produced them.
type resultFile struct {
	Machine machineInfo          `json:"machine"`
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"seconds"`
	Sizes   sizes                `json:"sizes"`
	Runs    []map[string]*result `json:"runs"`
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints every metric of a run by name, with its unit and
// the number of samples behind it.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s  seed %d  %d repetitions  %.2f s measured  answers_fnv64a %s\n", res.Workload, res.Seed, res.Reps, res.BusyS, res.Answers)
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %16.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, k := range sortedKeys(res.Info) {
		m := res.Info[k]
		fmt.Fprintf(w, "  (%-28s %16.6g %-6s n=%d)\n", k, m.Value, m.Unit, m.N)
	}
	for _, d := range perLayer {
		if m, ok := res.Layers[d.Name]; ok && d.on(res.Workload) {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// printContractLine ends a single-workload run with the one JSON object
// BENCHMARK.json's harness reads: the end-to-end metrics every workload
// reports, or with tracing every per-layer metric.
func printContractLine(w *os.File, res *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{res.Layers[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range contractMetrics() {
			metrics[d.Name] = value{res.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(2, "bench: %v", err)
	}
	fmt.Fprintln(w, string(line))
}
