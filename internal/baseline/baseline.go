// Package baseline implements the representation a system without the
// paper's sliced design would use: a flat, unordered bag of temporal
// fragments with linear-scan lookup and all-pairs binary operations. It
// exists as the comparator for the benchmark harness — the experiments
// measure the sliced representation of the paper (ordered unit arrays,
// binary search, refinement partition) against this baseline.
package baseline

import (
	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// NaiveMPoint is a moving point stored as an unordered bag of upoint
// fragments.
type NaiveMPoint struct {
	Frags []units.UPoint
}

// FromMPoint flattens a sliced moving point into the naive
// representation, deliberately shuffling away the temporal order (a
// deterministic interleave so benchmarks are reproducible).
func FromMPoint(p moving.MPoint) NaiveMPoint {
	return NaiveMPoint{Frags: interleave(p.M.Units())}
}

// interleave reorders a slice deterministically so that linear scans
// cannot exploit accidental ordering.
func interleave[T any](in []T) []T {
	out := make([]T, 0, len(in))
	for i := 0; i < len(in); i += 2 {
		out = append(out, in[i])
	}
	for i := 1; i < len(in); i += 2 {
		out = append(out, in[i])
	}
	return out
}

// AtInstant evaluates the point by scanning all fragments — O(n) against
// the sliced representation's O(log n).
func (p NaiveMPoint) AtInstant(t temporal.Instant) (geom.Point, bool) {
	for _, u := range p.Frags {
		if u.Iv.Contains(t) {
			return u.Eval(t), true
		}
	}
	return geom.Point{}, false
}

// NaiveMRegion is a moving region stored as an unordered bag of uregion
// fragments.
type NaiveMRegion struct {
	Frags []units.URegion
}

// FromMRegion flattens a sliced moving region.
func FromMRegion(r moving.MRegion) NaiveMRegion {
	return NaiveMRegion{Frags: interleave(r.M.Units())}
}

// AtInstant evaluates the region by scanning all fragments — O(n + r)
// scan against the sliced O(log n + r).
func (r NaiveMRegion) AtInstant(t temporal.Instant) (spatial.Region, bool) {
	for _, u := range r.Frags {
		if u.Iv.Contains(t) {
			return u.EvalAt(t)
		}
	}
	return spatial.Region{}, false
}

// Inside computes the moving bool of "point inside region" by testing
// all fragment pairs for interval overlap — O(n·m) pairs against the
// refinement partition's O(n + m) — and then running the same unit-pair
// kernel. Results are collected unordered and sorted at the end, as a
// structure-less system would have to.
func (p NaiveMPoint) Inside(r NaiveMRegion) moving.MBool {
	var collected []units.UBool
	for _, up := range p.Frags {
		for _, ur := range r.Frags {
			if _, ok := up.Iv.Intersect(ur.Iv); !ok {
				continue
			}
			collected = units.UPointInsideURegion(collected, up, ur)
		}
	}
	// Sort by interval start (insertion into an ordered list).
	for i := 1; i < len(collected); i++ {
		for j := i; j > 0 && before(collected[j].Iv, collected[j-1].Iv); j-- {
			collected[j], collected[j-1] = collected[j-1], collected[j]
		}
	}
	m, err := moving.NewMBool(collected...)
	if err != nil {
		// Adjacent equal units are legal output of the pairwise scan;
		// rebuild through a merge.
		var bld mbBuilder
		for _, u := range collected {
			bld.add(u)
		}
		return bld.build()
	}
	return m
}

func before(a, b temporal.Interval) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.LC && !b.LC
}

type mbBuilder struct {
	us []units.UBool
}

func (b *mbBuilder) add(u units.UBool) {
	if n := len(b.us); n > 0 {
		prev := b.us[n-1]
		if prev.Iv.Adjacent(u.Iv) && prev.V == u.V {
			if merged, ok := prev.Iv.Union(u.Iv); ok {
				b.us[n-1].Iv = merged
				return
			}
		}
	}
	b.us = append(b.us, u)
}

func (b *mbBuilder) build() moving.MBool {
	m, err := moving.NewMBool(b.us...)
	if err != nil {
		panic(err)
	}
	return m
}
