package db

import (
	"context"
	"errors"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/obs"
	"movingdb/internal/spatial"
	"movingdb/internal/temporal"
	"movingdb/internal/workload"
)

// numbersCatalog builds two relations whose cross product is large
// enough that the evaluation loop passes many cancellation checkpoints.
func numbersCatalog(n int) Catalog {
	a := NewRelation("a", Schema{{Name: "x", Type: TReal}})
	b := NewRelation("b", Schema{{Name: "y", Type: TReal}})
	for i := 0; i < n; i++ {
		a.MustInsert(Tuple{float64(i)})
		b.MustInsert(Tuple{float64(i)})
	}
	return Catalog{"a": a, "b": b}
}

func TestQueryContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := QueryContext(ctx, numbersCatalog(4), "SELECT x FROM a")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryContextDeadlineStopsCrossProduct(t *testing.T) {
	cat := numbersCatalog(2000) // 4M-row cross product: far beyond the deadline
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := QueryContext(ctx, cat, "SELECT x, y FROM a, b WHERE x + y > 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, not bounded", elapsed)
	}
}

func TestQueryContextAggregateCancel(t *testing.T) {
	cat := numbersCatalog(2000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := QueryContext(ctx, cat, "SELECT count(*) FROM a, b")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("aggregate err = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryContextBackgroundMatchesQuery(t *testing.T) {
	cat := numbersCatalog(10)
	want, err := Query(cat, "SELECT x FROM a WHERE x > 5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := QueryContext(context.Background(), cat, "SELECT x FROM a WHERE x > 5")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
}

func TestQueryContextRecordsOperatorTimings(t *testing.T) {
	cat := testCatalog(t)
	m := obs.New(0)
	ctx := obs.NewContext(context.Background(), m)
	res, err := QueryContext(ctx, cat, "SELECT id, length(trajectory(flight)) AS len FROM planes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no rows")
	}
	ops := m.Snapshot().Operators
	if ops["trajectory"].Count == 0 || ops["length"].Count == 0 {
		t.Fatalf("operator timings missing: %v", ops)
	}
	if ops["trajectory"].Count != int64(res.Len()) {
		t.Errorf("trajectory count = %d, rows = %d", ops["trajectory"].Count, res.Len())
	}
	// A query may spell an operation in any case: the derived column
	// keeps the spelling, the operator timings keep the table's name.
	res, err = QueryContext(ctx, cat, "SELECT Length(TRAJECTORY(flight)) FROM planes")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schema[0].Name; got != "Length(TRAJECTORY(flight))" {
		t.Errorf("derived column name = %q", got)
	}
	ops = m.Snapshot().Operators
	if len(ops) != 2 || ops["trajectory"].Count != 2*int64(res.Len()) || ops["length"].Count != 2*int64(res.Len()) {
		t.Errorf("operator timings after a mixed-case query: %v", ops)
	}
	// ORDER BY an output alias sorts on the projected column: one
	// evaluation per row, not a second one for the key.
	res, err = QueryContext(ctx, cat, "SELECT id, length(trajectory(flight)) AS len FROM planes ORDER BY len DESC")
	if err != nil {
		t.Fatal(err)
	}
	ops = m.Snapshot().Operators
	if ops["trajectory"].Count != 3*int64(res.Len()) || ops["length"].Count != 3*int64(res.Len()) {
		t.Errorf("operator timings after ORDER BY an alias over %d rows: %v", res.Len(), ops)
	}
}

// deadlineAfter is a context whose Err turns DeadlineExceeded on its n-th
// call: a deadline that expires at a chosen poll, not at a wall-clock
// time a faster join could beat.
type deadlineAfter struct {
	context.Context
	calls, n int
}

func (c *deadlineAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

func TestQueryContextDeadlineDuringInside(t *testing.T) {
	// The deadline expires while the evaluator is inside the fused
	// sometimes(inside) walk, so cancellation must be observed by the walk
	// itself, not only at entry or between rows. QueryContext polls once
	// on entry and the row loop not before its 64th row, so a second poll
	// that comes earlier is the walk's — which returns the context's error
	// bare, where the row loop wraps it.
	planes := NewRelation("planes", Schema{
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	for _, f := range workload.New(7).Flights(40, 400) {
		planes.MustInsert(Tuple{f.ID, f.Flight})
	}
	storms := NewRelation("storms", Schema{
		{Name: "name", Type: TString},
		{Name: "extent", Type: TMRegion},
	})
	g := workload.New(8)
	for i := 0; i < 40; i++ {
		storms.MustInsert(Tuple{"S", g.Storm(0, 120, 10, 4)})
	}
	// The mirror: one pair whose only kernel piece is its last. The walk
	// polls on the first piece it walks, whether or not the boxes refuse it.
	late := NewRelation("planes", planes.Schema)
	var samples []moving.Sample
	for i := 0; i <= 100; i++ {
		samples = append(samples, moving.Sample{T: temporal.Instant(i), P: geom.Pt(float64(i), float64(i%2))})
	}
	flight, err := moving.MPointFromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	late.MustInsert(Tuple{"L", flight})
	goal := NewRelation("storms", storms.Schema)
	goal.MustInsert(Tuple{"G", moving.StaticMRegion(spatial.MustPolygonRegion(spatial.Ring(99.5, -1, 110, -1, 110, 2, 99.5, 2)), temporal.Closed(0, 1000))})

	const sql = "SELECT name FROM planes, storms WHERE sometimes(inside(flight, extent))"
	for name, cat := range map[string]Catalog{
		"cross product": {"planes": planes, "storms": storms},
		"late kernel":   {"planes": late, "storms": goal},
	} {
		if res, err := Query(cat, sql); err != nil || res.Len() == 0 {
			t.Fatalf("%s: without a deadline: %v rows, err = %v", name, res, err)
		}
		m := obs.New(0)
		ctx := &deadlineAfter{Context: obs.NewContext(context.Background(), m), n: 2}
		if _, err := QueryContext(ctx, cat, sql); err != context.DeadlineExceeded || ctx.calls != 2 {
			t.Errorf("%s: err = %v after %d polls, want the walk's bare context.DeadlineExceeded at the second", name, err, ctx.calls)
		}
		// The interrupted walk counts as a kernel run on both ledgers.
		snap := m.Snapshot()
		if ran, kernel := snap.Operators["inside"].Count, snap.Filters["inside"].Kernel; (ran != kernel && !debugFilter) || kernel == 0 {
			t.Errorf("%s: the inside operator ran %d times, the filter passed %d pairs", name, ran, kernel)
		}
	}
}

// TestQueryContextDeadlineStopsRefusedRows: a row test that refuses
// every row of an outer FROM item still polls for cancellation, a
// refused row counting as one: the statement below refuses all 4M rows
// of a × b and never reaches c's.
func TestQueryContextDeadlineStopsRefusedRows(t *testing.T) {
	cat := numbersCatalog(2000)
	ctx := &deadlineAfter{Context: context.Background(), n: 2}
	_, err := QueryContext(ctx, cat, "SELECT a.x FROM a, b, a c WHERE a.x < b.y AND b.y < a.x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %d polls, want context.DeadlineExceeded", err, ctx.calls)
	}
}
