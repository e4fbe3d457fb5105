//go:build !race && !debugcheck

package db

import (
	"testing"

	"movingdb/internal/allocbudget"
)

// TestAllocBudgets: a join on a filtered predicate allocates nothing for
// the pairs the filter excludes, and the fused walks allocate nothing
// for the pairs they decide either. The other conjuncts allocate
// nothing per row: a literal is boxed once, by the parser, and a
// comparison reads its operands' values where they are. So both
// benchmarks are the parse, the bound plan and the output rows; only a
// within pair the walk leaves undecided would run the distance chain
// and allocate what carries its operator results between calls, and the
// benchmark's 190 pairs have none. Neither pays per-row typing, overload
// search or argument slices, which the query binds once. The relations'
// summaries are built by the first query and are not in the per-query
// figure. The template rows hold the same on the analytics workload's
// catalog and the served path (with a registry): 3 200, 19 900 and 200
// guarded pairs, so one allocation more per pair is far over. Template
// c has no guard: max(area(extent)) is bound as one fused call that
// folds each storm's area units as they are produced, so its row is the
// parse, the plan and 16 boxed maxima, and no moving real. A WHERE
// conjunct that reads one relation filters it into a list that shares
// the row cursors' allocation (template c's and d's); one that reads two
// is a row test that allocates nothing (template b's).
// (Not run under debugcheck, whose guards evaluate the composed
// expression for every pair as well.)
func TestAllocBudgets(t *testing.T) {
	allocbudget.Check(t,
		allocbudget.Budget{Name: "BenchmarkJoinInside", Bench: BenchmarkJoinInside, MaxAllocs: 105, MaxBytes: 9700},
		allocbudget.Budget{Name: "BenchmarkJoinDistance", Bench: BenchmarkJoinDistance, MaxAllocs: 100, MaxBytes: 11600},
		allocbudget.Budget{Name: "BenchmarkTemplateA", Bench: BenchmarkTemplateA, MaxAllocs: 554, MaxBytes: 66600},
		allocbudget.Budget{Name: "BenchmarkTemplateB", Bench: BenchmarkTemplateB, MaxAllocs: 673, MaxBytes: 76100},
		allocbudget.Budget{Name: "BenchmarkTemplateC", Bench: BenchmarkTemplateC, MaxAllocs: 75, MaxBytes: 8000},
		allocbudget.Budget{Name: "BenchmarkTemplateD", Bench: BenchmarkTemplateD, MaxAllocs: 85, MaxBytes: 12400},
	)
}
