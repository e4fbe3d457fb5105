//go:build debugcheck

package moving_test

import (
	"context"
	"math/rand"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
)

// TestWalkPairsLinear states Section 5's O(n + m) for the two fused
// walks as a count: over two unit arrays of n and m units, gaps
// included, each visits exactly the common pieces of their refinement
// partition, never more than n + m − 1 pairs, and that count doubles
// with n and m. The region lies far from the point, so the inside walk
// never stops at a true piece.
func TestWalkPairsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	// chain returns n units of random length, one in eight after a gap.
	chain := func(n int) []temporal.Interval {
		ivs := make([]temporal.Interval, n)
		at := temporal.Instant(0)
		for k := range ivs {
			if rng.Intn(8) == 0 {
				at += temporal.Instant(rng.Float64())
			}
			end := at + temporal.Instant(0.25+rng.Float64())
			ivs[k] = temporal.RightHalfOpen(at, end)
			at = end
		}
		return ivs
	}
	prev := 0
	for _, n := range []int{64, 128, 256, 512} {
		ia, ib := chain(n), chain(n)
		zero, far := make([]float64, n), make([]float64, n)
		for k := range far {
			far[k] = 1e6
		}
		p, q, r := walkPoint(ia, zero, zero), walkPoint(ib, zero, zero), walkRegion(ib, far)
		pb, qb, rb := p.Bounds(), q.Bounds(), r.Bounds()
		moving.TakePieceCounts()
		if hit, _, err := moving.SometimesInsideHook(context.Background(), p, &pb, r, &rb, nil); hit || err != nil {
			t.Fatalf("n = %d: the inside walk answers %v, %v over a region far away", n, hit, err)
		}
		moving.ComesWithin(p, &pb, q, &qb, 1, nil)
		inside, within := moving.TakePieceCounts()
		common := int64(len(commonPieces(ia, ib)))
		if inside.Visited != common || within.Visited != common {
			t.Errorf("n = m = %d: the walks visit %d and %d pairs, the partition has %d common pieces", n, inside.Visited, within.Visited, common)
		}
		if bound := int64(2*n - 1); common > bound {
			t.Errorf("n = m = %d: %d pairs visited, more than n + m − 1 = %d", n, common, bound)
		}
		if c := int(common); prev > 0 && (c < 18*prev/10 || c > 22*prev/10) {
			t.Errorf("n = m = %d: %d pairs visited, %d at half the size: not linear", n, c, prev)
		}
		t.Logf("n = m = %d: %d pairs visited (n + m − 1 = %d)", n, common, 2*n-1)
		prev = int(common)
	}
}
