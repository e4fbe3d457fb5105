// Package fault is the deterministic fault-injection layer of the
// storage and ingestion stack. It provides seeded, reproducible
// failpoints — error-once, error-N-times, partial (torn) write, and
// latency — that a wrapping Store injects into page-store I/O without
// touching production hot paths: the write path talks to an interface,
// and only tests, the chaos harness and moserver's -failpoints flag ever
// interpose the Store. Sites inside the serving code call Hit
// (hooks.go), which costs one atomic load while nothing is armed.
//
// Failpoints are addressed by site name ("wal.put", "epoch.publish",
// ...; see sites.go). Each site carries a Spec: a mode, an optional trip
// budget (error-once is Times: 1), an optional per-hit probability
// drawn from the injector's seeded RNG (so a 1% fault schedule replays
// identically for a given seed), and mode parameters. Everything an
// injector decides is a pure function of the seed and the sequence of
// hits, which is what makes failure tests reproducible.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the root of every injected failure; callers that need
// to distinguish injected from organic errors match it with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Mode selects what a tripped failpoint does to the operation.
type Mode int

const (
	// ModeError fails the operation outright.
	ModeError Mode = iota
	// ModeTorn lands a prefix of the bytes and then fails — the torn
	// write of a crash mid-I/O. Only meaningful on write sites; read
	// sites treat it as ModeError.
	ModeTorn
	// ModeLatency delays the operation and then lets it proceed.
	ModeLatency
)

// String names the mode as the spec grammar spells it.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeTorn:
		return "torn"
	case ModeLatency:
		return "latency"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec configures one failpoint.
type Spec struct {
	Mode Mode
	// Times bounds how many times the point trips; 0 means every hit
	// (a persistent fault). Times: 1 is the classic error-once point.
	Times int
	// Prob is the per-hit trip probability in (0, 1]; 0 means 1
	// (always). Draws come from the injector's seeded RNG.
	Prob float64
	// Delay is the injected latency for ModeLatency.
	Delay time.Duration
	// KeepFraction is the fraction of bytes that land in a ModeTorn
	// write; 0 means half.
	KeepFraction float64
}

type point struct {
	spec      Spec
	remaining int // trips left; -1 = unlimited
	trips     int64
}

// Injector holds the failpoint table and the seeded RNG behind
// probabilistic trips. The zero value is not usable; construct with
// New. All methods are safe for concurrent use and safe on a nil
// receiver (a nil injector never trips), so wiring one in is free.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand        // guarded by mu
	points map[string]*point // guarded by mu
	onTrip func(site string) // guarded by mu
}

// New returns an injector whose probabilistic decisions replay
// identically for the same seed and hit sequence.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), points: map[string]*point{}}
}

// Set installs (or replaces) the failpoint at site.
func (in *Injector) Set(site string, spec Spec) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rem := -1
	if spec.Times > 0 {
		rem = spec.Times
	}
	in.points[site] = &point{spec: spec, remaining: rem}
}

// Clear removes the failpoint at site; the site then behaves normally.
func (in *Injector) Clear(site string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.points, site)
}

// ClearAll removes every failpoint.
func (in *Injector) ClearAll() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = map[string]*point{}
}

// OnTrip registers a hook called after every trip with the site name —
// the seam through which the metrics registry counts injected faults.
// The hook runs outside the injector's lock and must be safe for
// concurrent use.
func (in *Injector) OnTrip(fn func(site string)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onTrip = fn
}

// Trips reports how many times the failpoint at site has tripped.
func (in *Injector) Trips(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if pt := in.points[site]; pt != nil {
		return pt.trips
	}
	return 0
}

// action is the concrete outcome of one tripped failpoint.
type action struct {
	mode         Mode
	delay        time.Duration
	keepFraction float64
	err          error
}

// Hit evaluates the failpoint at site for hook-style call sites that
// carry no bytes to tear: a latency trip sleeps and lets the operation
// proceed, while error and torn trips return the injected error. A nil
// injector never trips, so production call sites pay one nil check.
func (in *Injector) Hit(site string) error {
	act, ok := in.eval(site)
	if !ok {
		return nil
	}
	if act.mode == ModeLatency {
		// Injected latency must really elapse; which calls sleep is
		// decided by the seeded injector, so outcomes stay deterministic.
		time.Sleep(act.delay)
		return nil
	}
	return act.err
}

// eval decides whether the failpoint at site trips on this hit, and if
// so with what action. A spent or absent point never trips. The OnTrip
// hook, if any, fires after the injector lock is released.
func (in *Injector) eval(site string) (action, bool) {
	if in == nil {
		return action{}, false
	}
	act, ok, hook := in.evalTrip(site)
	if ok && hook != nil {
		hook(site)
	}
	return act, ok
}

func (in *Injector) evalTrip(site string) (action, bool, func(string)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	pt := in.points[site]
	if pt == nil || pt.remaining == 0 {
		return action{}, false, nil
	}
	if p := pt.spec.Prob; p > 0 && p < 1 && in.rng.Float64() >= p {
		return action{}, false, nil
	}
	if pt.remaining > 0 {
		pt.remaining--
	}
	pt.trips++
	kf := pt.spec.KeepFraction
	if kf <= 0 || kf >= 1 {
		kf = 0.5
	}
	return action{
		mode:         pt.spec.Mode,
		delay:        pt.spec.Delay,
		keepFraction: kf,
		err:          fmt.Errorf("%w at %s", ErrInjected, site),
	}, true, in.onTrip
}
