package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare: the diff with noise bands. One row per workload and
// end-to-end metric: both medians, their ratio with its base, the bound
// and a verdict. A metric whose own run-to-run spread is wider than its
// bound cannot be called unchanged: it is unresolved, and that is not a
// pass.

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	Unit             string
	Old, New         float64 // medians
	NOld, NNew       int     // runs behind them
	Ratio            float64 // new ÷ old
	Bound            float64
	Spread           float64 // wider of the two sides' interquartile range ÷ median
	Verdict          verdict
}

// judge applies the rule to one metric. worse is the relative change in
// the bad direction; a change counts only beyond the bound, and only
// when the runs of each side agree with themselves more tightly than
// that.
func judge(def metricDef, old, new []float64) compareRow {
	row := compareRow{Metric: def.Name, Unit: def.Unit, Old: median(old), New: median(new), NOld: len(old), NNew: len(new), Bound: def.Bound}
	row.Spread = math.Max(iqrShare(old), iqrShare(new))
	worse := 0.0
	switch {
	case row.Old == row.New:
	case row.Old == 0:
		// No base to take a share of: any move from zero is a whole one.
		worse = math.Copysign(1, row.New)
		if def.Better == "higher" {
			worse = -worse
		}
	default:
		row.Ratio = row.New / row.Old
		worse = (row.New - row.Old) / math.Abs(row.Old)
		if def.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > def.Bound:
		row.Verdict = regressed
	case row.Spread > def.Bound && def.Bound > 0:
		row.Verdict = unresolved
	case worse < -def.Bound && def.Bound > 0:
		row.Verdict = improved
	default:
		row.Verdict = unchanged
	}
	return row
}

func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range f.Runs {
		if res, ok := run[workload]; ok {
			if m, ok := res.EndToEnd[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func compareResults(old, new *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range allWorkloads {
		for _, def := range endToEnd {
			a, b := old.values(w, def.Name), new.values(w, def.Name)
			if !def.on(w) || len(a) == 0 || len(b) == 0 {
				continue // not bounded here (or demoted since the file was written)
			}
			row := judge(def, a, b)
			row.Workload = w
			rows = append(rows, row)
		}
	}
	return rows
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints the comparison and returns the exit code: 1 on
// any regressed row (failed_share has bound 0, so any rise regresses),
// 0 otherwise, 2 when a file cannot be read.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err == nil {
		var cur *resultFile
		if cur, err = readResults(newPath); err == nil {
			return printComparison(w, compareResults(old, cur))
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(w io.Writer, rows []compareRow) int {
	code := 0
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %-6s %8s %6s %7s  %s\n", "workload", "metric", "old median", "new median", "unit", "new/old", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %-6s %8.3f %6.2f %7.3f  %s (n=%d/%d)\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, r.Ratio, r.Bound, r.Spread, r.Verdict, r.NOld, r.NNew)
		counts[r.Verdict]++
		if r.Verdict == regressed {
			code = 1
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved (spread wider than the bound)\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	return code
}
