//go:build debugcheck

package db

import (
	"testing"

	"movingdb/internal/moving"
)

// TestPieceCountsOnBenchCatalog pins what the join walks do with the
// unit pairs of templates a, b and d on the analytics workload's
// catalog: pairs visited, refused by the stored boxes, refused by the
// sliced boxes, handed to the kernel. A change to how the walks list
// the pairs must not move a pair from one outcome to another. The walks
// count only under the debugcheck build tag.
func TestPieceCountsOnBenchCatalog(t *testing.T) {
	cat := analyticsCatalog()
	for _, tc := range []struct {
		name, sql      string
		inside, within moving.PieceCounts
	}{
		{"template a", templateA, moving.PieceCounts{Visited: 28141, Stored: 24529, Sliced: 2378, Kernel: 1234}, moving.PieceCounts{}},
		{"template b", templateB, moving.PieceCounts{}, moving.PieceCounts{Visited: 25967, Stored: 20130, Sliced: 3745, Kernel: 2092}},
		{"template d", templateD, moving.PieceCounts{Visited: 935, Stored: 917, Sliced: 9, Kernel: 9}, moving.PieceCounts{}},
	} {
		moving.TakePieceCounts()
		if _, err := Query(cat, tc.sql); err != nil {
			t.Fatal(err)
		}
		if inside, within := moving.TakePieceCounts(); inside != tc.inside || within != tc.within {
			t.Errorf("%s: inside walk %+v, within walk %+v; want %+v, %+v", tc.name, inside, within, tc.inside, tc.within)
		}
	}
}
