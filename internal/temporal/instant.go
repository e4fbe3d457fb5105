// Package temporal implements the time domain of the discrete moving
// objects data model: instants (a time domain isomorphic to the reals),
// intervals with individual closure flags, and canonical sets of
// disjoint, non-adjacent intervals (the range(α) type over a real domain;
// range(instant) is called Periods). It also provides the refinement
// partition of two interval sequences (Figure 8 of the paper), the
// backbone of every lifted binary operation on moving objects.
package temporal

import (
	"fmt"
	"math"
	"time"
)

// Instant is a point on the time axis. Following Section 3.2.1 of the
// paper, the time domain is represented by a programming language real:
// the unit is seconds, with zero an arbitrary epoch. Conversions to and
// from time.Time interpret the value as seconds since the Unix epoch.
type Instant float64

// NegInf and PosInf bound the time axis for algorithms that need
// sentinels; they are not valid instants inside values.
var (
	NegInf = Instant(math.Inf(-1))
	PosInf = Instant(math.Inf(1))
)

// Time converts the instant back to a time.Time in UTC.
func (t Instant) Time() time.Time {
	sec, frac := math.Modf(float64(t))
	return time.Unix(int64(sec), int64(frac*1e9)).UTC()
}

// IsFinite reports whether t is a real instant (not ±infinity, not NaN).
func (t Instant) IsFinite() bool {
	f := float64(t)
	return !math.IsInf(f, 0) && !math.IsNaN(f)
}

// String formats the instant as a plain number, which is the most useful
// form for the synthetic time axes used throughout the experiments.
func (t Instant) String() string { return fmt.Sprintf("%g", float64(t)) }
