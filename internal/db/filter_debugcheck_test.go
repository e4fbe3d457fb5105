//go:build debugcheck

package db

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"movingdb/internal/moving"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
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

// TestDebugcheckCatchesPlantedDisagreement: under debugcheck every pair
// the row loop's candidate test refuses still runs the guard's
// expression, and a candidate test that refuses a pair its expression
// holds for panics.
func TestDebugcheckCatchesPlantedDisagreement(t *testing.T) {
	cat := Catalog{"planes": benchPlanes(workload.New(2000))}
	for _, tc := range []struct {
		name  string
		plant func(where node)
	}{
		{"none", func(node) {}},
		{"candidate test", func(where node) {
			// q's summaries say it is defined at no instant p is, so the
			// box test refuses every pair; val(…) < 15 holds for some.
			g := where.(*connective).r.(*guard)
			g.points[1] = slices.Clone(g.points[1])
			for i := range g.points[1] {
				g.points[1][i].Start, g.points[1][i].End = temporal.PosInf, temporal.PosInf
			}
		}},
	} {
		env, where := bindForTest(t, cat, "SELECT p.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < 15")
		tc.plant(where)
		rows := 0
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			if err := env.forEachRow(where, func() error { rows++; return nil }); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return ""
		}()
		switch {
		case tc.name == "none" && (msg != "" || rows == 0):
			t.Errorf("unplanted: %d rows, panic %q; want rows and no panic", rows, msg)
		case tc.name != "none" && !strings.HasPrefix(msg, "debugcheck: "):
			t.Errorf("%s: planted disagreement not caught (panic %q, %d rows)", tc.name, msg, rows)
		}
	}
}
