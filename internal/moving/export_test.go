package moving

import "context"

// SometimesInside is SometimesInsideHook without a hook, as the tests
// call it.
func SometimesInside(ctx context.Context, p MPoint, pb *PointBounds, r MRegion, rb *RegionBounds) (bool, Verdict, error) {
	return SometimesInsideHook(ctx, p, pb, r, rb, nil)
}
