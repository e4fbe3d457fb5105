package moving_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"movingdb/internal/geom"
	"movingdb/internal/mapping"
	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
)

// walkReal is a moving real over decoded units: unit k is the line
// through x[k] at its start with slope vx[k], raised by k/64 (so that no
// two adjacent units are equal).
func walkReal(ivs []temporal.Interval, x, vx []float64) moving.MReal {
	us := make([]units.UReal, len(ivs))
	for k, iv := range ivs {
		c := x[k] + float64(k)/64
		if finite(float64(iv.Start)) {
			c -= vx[k] * float64(iv.Start)
		}
		us[k] = units.NewUReal(iv, 0, vx[k], c, false)
	}
	return moving.MReal{M: mapping.Must(us...)}
}

// FuzzLiftedMatchesRefine holds every lifted binary operation to its
// unit kernel run over temporal.Refine's common pieces, in order, and
// appended through mapping.Builder: Distance, InsideCtx, IntersectsCtx,
// LessThan (polynomial and root units; when the kernel decides, the
// operation must too) and AtPeriods. Each operation lists its unit
// pairs by index (temporal.Seek); the partition is the oracle of that
// listing. Its inputs are FuzzWalkPieces'.
func FuzzLiftedMatchesRefine(f *testing.F) {
	addWalkSeeds(f)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, ends byte, bt, _ float64) {
		if !(math.Abs(bt) <= 64) || len(rawA) > 64 || len(rawB) > 64 {
			t.Skip()
		}
		ia, xa, va := decodeWalkUnits(rawA, ends, 0)
		ib, xb, vb := decodeWalkUnits(rawB, ends>>2, temporal.Instant(bt))
		p, q := walkPoint(ia, xa, va), walkPoint(ib, xb, vb)
		r, s := walkRegion(ia, xa), walkRegion(ib, xb)
		pu, qu, ru, su := p.M.Units(), q.M.Units(), r.M.Units(), s.M.Units()

		var dist mapping.Builder[units.UReal]
		for _, ri := range commonPieces(spans(pu), spans(qu)) {
			dist.Append(pu[ri.A].DistanceTo(qu[ri.B], ri.Iv))
		}
		sameUnits(t, "Distance", p.Distance(q).M, dist, ia, ib)

		var in mapping.Builder[units.UBool]
		for _, ri := range commonPieces(spans(pu), spans(su)) {
			for _, u := range units.UPointInsideURegion(nil, pu[ri.A].WithInterval(ri.Iv), su[ri.B].WithInterval(ri.Iv)) {
				in.Append(u)
			}
		}
		inside, err := p.InsideCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		sameUnits(t, "InsideCtx", inside.M, in, ia, ib)

		var meet mapping.Builder[units.UBool]
		for _, ri := range commonPieces(spans(ru), spans(su)) {
			for _, u := range units.URegionIntersects(nil, ru[ri.A].WithInterval(ri.Iv), su[ri.B].WithInterval(ri.Iv)) {
				meet.Append(u)
			}
		}
		meets, err := r.IntersectsCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		sameUnits(t, "IntersectsCtx", meets.M, meet, ia, ib)

		origin := geom.Pt(0, 0)
		for _, pair := range [][2]moving.MReal{
			{walkReal(ia, xa, va), walkReal(ib, xb, vb)},
			{p.DistanceToPoint(origin), q.DistanceToPoint(origin)},
		} {
			xu, yu := pair[0].M.Units(), pair[1].M.Units()
			var less mapping.Builder[units.UBool]
			decided := true
			for _, ri := range commonPieces(spans(xu), spans(yu)) {
				if !moving.AppendLess(&less, xu[ri.A].WithInterval(ri.Iv), yu[ri.B].WithInterval(ri.Iv)) {
					decided = false
					break
				}
			}
			got, ok := pair[0].LessThan(pair[1])
			if ok != decided {
				t.Fatalf("LessThan decided %v, its kernel over the partition %v\n a %v\n b %v", ok, decided, pair[0], pair[1])
			}
			if ok {
				sameUnits(t, "LessThan", got.M, less, ia, ib)
			}
		}

		per := temporal.MustPeriods(ib...)
		var at mapping.Builder[units.UPoint]
		for _, ri := range commonPieces(spans(pu), per.Intervals()) {
			at.Append(pu[ri.A].WithInterval(ri.Iv))
		}
		sameUnits(t, "AtPeriods", p.M.AtPeriods(per), at, ia, ib)
	})
}

// sameUnits fails the test unless got has the units the oracle built.
func sameUnits[U interface {
	comparable
	units.Unit[U]
}](t *testing.T, op string, got mapping.Mapping[U], oracle mapping.Builder[U], ia, ib []temporal.Interval) {
	t.Helper()
	want, err := oracle.Build()
	if err != nil {
		t.Fatalf("%s over the partition: %v", op, err)
	}
	if !slices.Equal(got.Units(), want.Units()) {
		t.Fatalf("%s walks to\n %v\nthe kernel over the partition to\n %v\n a %v\n b %v", op, got, want, ia, ib)
	}
}
