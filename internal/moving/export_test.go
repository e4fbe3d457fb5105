package moving

import (
	"context"

	"movingdb/internal/temporal"
)

// SometimesInside is SometimesInsideHook without a hook, as the tests
// call it.
func SometimesInside(ctx context.Context, p MPoint, pb *PointBounds, r MRegion, rb *RegionBounds) (bool, Verdict, error) {
	return SometimesInsideHook(ctx, p, pb, r, rb, nil)
}

// SometimesInsideVisit and ComesWithinVisit run the walks with a visit
// hook: it is told of every unit pair visited, in order, with the piece
// built for it or the zero Interval when the stored boxes refused it.
func SometimesInsideVisit(p MPoint, pb *PointBounds, r MRegion, rb *RegionBounds, visit func(a, b int, piece temporal.Interval)) bool {
	hit, _, _ := sometimesInside(context.Background(), p, pb, r, rb, nil, visit)
	return hit
}

func ComesWithinVisit(p MPoint, pb *PointBounds, q MPoint, qb *PointBounds, c float64, visit func(a, b int, piece temporal.Interval)) {
	comesWithin(p, pb, q, qb, c, nil, visit)
}

// AppendLess is MReal.LessThan's unit kernel.
var AppendLess = appendLess
