package sim

import (
	"fmt"
	"sort"
	"strings"

	"movingdb/internal/fault"
)

// Chaos profiles: a named schedule of failpoint flips expressed as
// fractions of the run, so the same profile scales from a 40-tick unit
// test to a 30-second acceptance run. Every referenced site is checked
// against the static failpoint catalog up front — a profile naming a
// site that no longer exists is a startup error, never a silently
// armed no-op.
//
// Profiles deliberately avoid probabilistic specs (Spec.Prob): the
// injector's RNG is shared across sites and hit concurrently by the
// WAL retry loop and the hook sites, so probabilistic trip decisions
// would not replay tick-for-tick. Windowed persistent faults and
// Times-bounded trips keep every outcome deterministic.

// Flip is one scheduled failpoint change: at the tick nearest Frac of
// the run, Site is armed with Spec (or cleared when Spec is nil).
type Flip struct {
	Frac float64
	Site string
	Spec *fault.Spec
}

// Profile is a named chaos schedule.
type Profile struct {
	Name  string
	Desc  string
	Flips []Flip
}

// spec is shorthand for a persistent-error spec pointer.
func errSpec() *fault.Spec { return &fault.Spec{Mode: fault.ModeError} }

// ProfileNone is the empty schedule: a plain correctness run.
func ProfileNone() *Profile { return &Profile{Name: "none", Desc: "no faults; pure invariant run"} }

// Profiles returns the built-in chaos profiles, sorted by name.
func Profiles() []*Profile {
	ps := []*Profile{
		ProfileNone(),
		{
			Name: "wal-err",
			Desc: "WAL appends fail persistently for the middle quarter of the run: 503 degraded, probe recovery",
			Flips: []Flip{
				{Frac: 0.25, Site: "wal.put", Spec: errSpec()},
				{Frac: 0.50, Site: "wal.put"},
			},
		},
		{
			Name: "wal-torn",
			Desc: "WAL appends tear mid-page for a window: the ack path must refuse and degrade, reads unaffected",
			Flips: []Flip{
				{Frac: 0.30, Site: "wal.put", Spec: &fault.Spec{Mode: fault.ModeTorn}},
				{Frac: 0.55, Site: "wal.put"},
			},
		},
		{
			Name: "publish-skip",
			Desc: "epoch publishes defer for a window: writes ack but stay invisible until the first clean publish",
			Flips: []Flip{
				{Frac: 0.35, Site: "epoch.publish", Spec: errSpec()},
				{Frac: 0.55, Site: "epoch.publish"},
			},
		},
		{
			Name: "notify-wedge",
			Desc: "standing-query wake-ups are lost for a window: delivery defers, nothing is dropped or reordered",
			Flips: []Flip{
				{Frac: 0.40, Site: "live.notify", Spec: errSpec()},
				{Frac: 0.60, Site: "live.notify"},
			},
		},
		{
			Name: "sse-cut",
			Desc: "two SSE streams break mid-flight: clients reconnect, subscriptions survive, order is preserved",
			Flips: []Flip{
				{Frac: 0.45, Site: "sse.write", Spec: &fault.Spec{Mode: fault.ModeError, Times: 2}},
			},
		},
		{
			Name: "mixed",
			Desc: "the acceptance gauntlet: WAL outage, deferred publishes, lost wake-ups and stream cuts in sequence",
			Flips: []Flip{
				{Frac: 0.15, Site: "wal.put", Spec: errSpec()},
				{Frac: 0.30, Site: "wal.put"},
				{Frac: 0.40, Site: "epoch.publish", Spec: errSpec()},
				{Frac: 0.50, Site: "epoch.publish"},
				{Frac: 0.55, Site: "live.notify", Spec: errSpec()},
				{Frac: 0.65, Site: "live.notify"},
				{Frac: 0.70, Site: "sse.write", Spec: &fault.Spec{Mode: fault.ModeError, Times: 2}},
			},
		},
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// LookupProfile resolves a profile by name.
func LookupProfile(name string) (*Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0)
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("sim: unknown chaos profile %q (have: %s)", name, strings.Join(names, ", "))
}

// Validate rejects schedules referencing unknown failpoint sites or
// fractions outside [0, 1) — the stale-site startup error the catalog
// exists for.
func (p *Profile) Validate() error {
	for _, fl := range p.Flips {
		if !fault.KnownSite(fl.Site) {
			return fmt.Errorf("sim: chaos profile %q references unknown failpoint site %q (run mosim -chaos=list for the catalog)", p.Name, fl.Site)
		}
		if fl.Frac < 0 || fl.Frac >= 1 {
			return fmt.Errorf("sim: chaos profile %q flips %s at fraction %g, want [0, 1)", p.Name, fl.Site, fl.Frac)
		}
		if fl.Spec == nil {
			continue
		}
		if fl.Spec.Prob != 0 {
			return fmt.Errorf("sim: chaos profile %q sets Prob on %s; probabilistic trips are not replayable under concurrent hits", p.Name, fl.Site)
		}
		if fl.Spec.Mode == fault.ModeLatency {
			return fmt.Errorf("sim: chaos profile %q sets latency mode on %s; latency outcomes are wall-clock facts and break the verdict's determinism", p.Name, fl.Site)
		}
		if fl.Spec.Times != 0 && fl.Site != "sse.write" {
			return fmt.Errorf("sim: chaos profile %q bounds %s with Times; the oracle models non-SSE faults as armed/cleared windows, so only sse.write may self-expire", p.Name, fl.Site)
		}
	}
	return nil
}

// uses reports whether the schedule ever arms the named site.
func (p *Profile) uses(site string) bool {
	for _, fl := range p.Flips {
		if fl.Site == site && fl.Spec != nil {
			return true
		}
	}
	return false
}

// schedule maps the fractional flips onto concrete ticks of an n-tick
// run, preserving flip order within a tick.
func (p *Profile) schedule(n int) map[int][]Flip {
	out := map[int][]Flip{}
	for _, fl := range p.Flips {
		tick := 1 + int(fl.Frac*float64(n))
		if tick > n {
			tick = n
		}
		out[tick] = append(out[tick], fl)
	}
	return out
}
