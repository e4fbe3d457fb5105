package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpecs parses the command-line failpoint grammar used by
// moserver's -failpoints flag:
//
//	spec     := point *( ";" point )
//	point    := site "=" mode [ ":" arg ] *( "," option )
//	mode     := "error" | "torn" | "latency"
//	arg      := times (error) | keep-fraction (torn) | duration (latency)
//	option   := "prob=" float | "times=" int
//
// Examples:
//
//	wal.put=error:3                 fail the next three WAL appends
//	wal.put=torn                    tear one of every write, forever
//	wal.get=latency:5ms,prob=0.1    delay 10% of reads by 5ms
func ParseSpecs(s string) (map[string]Spec, error) {
	out := map[string]Spec{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rhs, ok := strings.Cut(part, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" || rhs == "" {
			return nil, fmt.Errorf("fault: bad failpoint %q: want site=mode[:arg][,option...]", part)
		}
		if !KnownSite(site) {
			return nil, fmt.Errorf("fault: unknown failpoint site %q (run with -failpoints=list for the catalog)", site)
		}
		fields := strings.Split(rhs, ",")
		var spec Spec
		mode, arg, hasArg := strings.Cut(fields[0], ":")
		switch strings.TrimSpace(mode) {
		case "error":
			spec.Mode = ModeError
			if hasArg {
				n, err := strconv.Atoi(arg)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: bad error count %q in %q", arg, part)
				}
				spec.Times = n
			}
		case "torn":
			spec.Mode = ModeTorn
			if hasArg {
				f, err := strconv.ParseFloat(arg, 64)
				if err != nil || f <= 0 || f >= 1 {
					return nil, fmt.Errorf("fault: bad keep fraction %q in %q (want 0 < f < 1)", arg, part)
				}
				spec.KeepFraction = f
			}
		case "latency":
			spec.Mode = ModeLatency
			if !hasArg {
				return nil, fmt.Errorf("fault: latency needs a duration in %q", part)
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: bad latency %q in %q", arg, part)
			}
			spec.Delay = d
		default:
			return nil, fmt.Errorf("fault: unknown mode %q in %q", mode, part)
		}
		for _, opt := range fields[1:] {
			key, val, _ := strings.Cut(strings.TrimSpace(opt), "=")
			switch key {
			case "prob":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("fault: bad probability %q in %q", val, part)
				}
				spec.Prob = p
			case "times":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: bad times %q in %q", val, part)
				}
				spec.Times = n
			default:
				return nil, fmt.Errorf("fault: unknown option %q in %q", opt, part)
			}
		}
		out[site] = spec
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: empty failpoint spec")
	}
	return out, nil
}
