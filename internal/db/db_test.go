package db

import (
	"errors"
	"math"
	"testing"

	"movingdb/internal/base"
	"movingdb/internal/geom"
	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
	"movingdb/internal/units"
	"movingdb/internal/workload"
)

func planesRelation(t *testing.T, n int) *Relation {
	t.Helper()
	rel := NewRelation("planes", Schema{
		{Name: "airline", Type: TString},
		{Name: "id", Type: TString},
		{Name: "flight", Type: TMPoint},
	})
	g := workload.New(7)
	for _, f := range g.Flights(n, 100) {
		rel.MustInsert(Tuple{f.Airline, f.ID, f.Flight})
	}
	return rel
}

// typeSample is one value of an attribute type, the type's name in the
// paper, and a check that a value read back from storage is the sample.
type typeSample struct {
	name  string
	v     any
	check func(any) bool
}

// typeSamples returns a sample of every attribute type in the type table
// and fails the test for a row without one, so a new row cannot skip the
// type-checking and storage tests.
func typeSamples(t *testing.T) map[AttrType]typeSample {
	t.Helper()
	iv := temporal.Closed(0, 9)
	mp, _ := moving.MPointFromSamples([]moving.Sample{
		{T: 0, P: geom.Pt(0, 0)}, {T: 9, P: geom.Pt(9, 9)},
	})
	var mc units.MCycle
	for _, p := range spatial.Ring(0, 0, 8, 0, 8, 8, 0, 8) {
		mc = append(mc, units.MPoint{X0: p.X, X1: 1, Y0: p.Y})
	}
	a := units.MPoint{X0: 0, X1: 1}
	bm := units.MPoint{X0: 0, X1: 1, Y0: 5}
	samples := map[AttrType]typeSample{
		TString: {"string", "hello", func(v any) bool { return v == "hello" }},
		TInt:    {"int", int64(-7), func(v any) bool { return v == int64(-7) }},
		TReal:   {"real", 2.5, func(v any) bool { return v == 2.5 }},
		TBool:   {"bool", true, func(v any) bool { return v == true }},
		TPeriods: {"range(instant)", temporal.MustPeriods(temporal.Closed(0, 2), temporal.Closed(5, 7)),
			func(v any) bool { return v.(temporal.Periods).Contains(6) }},
		TRegion: {"region", spatial.MustPolygonRegion(spatial.Ring(0, 0, 4, 0, 4, 4, 0, 4)),
			func(v any) bool { return v.(spatial.Region).Area() == 16 }},
		TLine: {"line", spatial.MustLine(geom.Seg(0, 0, 1, 1)),
			func(v any) bool { return v.(spatial.Line).NumSegments() == 1 }},
		TMPoint: {"mpoint", mp,
			func(v any) bool { return v.(moving.MPoint).AtInstant(4.5).P == geom.Pt(4.5, 4.5) }},
		TMRegion: {"mregion", moving.MustMRegion(units.MustURegion(iv, units.MFace{Outer: mc})),
			func(v any) bool { snap, ok := v.(moving.MRegion).AtInstant(3); return ok && snap.Area() == 64 }},
		TMReal: {"mreal", moving.MustMReal(units.NewUReal(iv, 1, 0, 0, false)),
			func(v any) bool { return v.(moving.MReal).AtInstant(3) == base.Def(9.0) }},
		TMBool: {"mbool", moving.MustMBool(units.UBool{Iv: iv, V: true}),
			func(v any) bool { return v.(moving.MBool).AtInstant(3) == base.Def(true) }},
		TMPoints: {"mpoints", moving.MustMPoints(units.MustUPoints(iv, a, bm)),
			func(v any) bool { got, ok := v.(moving.MPoints).AtInstant(3); return ok && got.Len() == 2 }},
		TMLine: {"mline", moving.MustMLine(units.MustULine(iv, units.MustMSeg(a, bm))),
			func(v any) bool { got, ok := v.(moving.MLine).AtInstant(3); return ok && got.NumSegments() == 1 }},
		TPoints: {"points", spatial.NewPoints(geom.Pt(1, 2), geom.Pt(3, 4)),
			func(v any) bool { return v.(spatial.Points).Len() == 2 }},
	}
	for i := range typeTable {
		if _, ok := samples[AttrType(i)]; !ok {
			t.Fatalf("no sample value for attribute type %d", i)
		}
	}
	return samples
}

func TestInsertTypeChecking(t *testing.T) {
	samples := typeSamples(t)
	for at, s := range samples {
		if at.String() != s.name {
			t.Errorf("AttrType(%d).String() = %q, want %q", int(at), at, s.name)
		}
		for bt := range samples {
			err := NewRelation("r", Schema{{Name: "a", Type: bt}}).Insert(Tuple{s.v})
			if bt == at && err != nil {
				t.Errorf("%s column rejected its own sample: %v", bt, err)
			}
			if bt != at && !errors.Is(err, ErrSchema) {
				t.Errorf("%s column accepted a %s value: %v", bt, at, err)
			}
		}
		// TIReal has no row in the type table: no column of it stores a value.
		if err := NewRelation("r", Schema{{Name: "a", Type: TIReal}}).Insert(Tuple{s.v}); !errors.Is(err, ErrSchema) {
			t.Errorf("intime column accepted a %s value: %v", at, err)
		}
	}
	rel := NewRelation("r", Schema{{Name: "a", Type: TString}, {Name: "b", Type: TReal}})
	if err := rel.Insert(Tuple{"x"}); !errors.Is(err, ErrSchema) {
		t.Error("arity violation accepted")
	}
	if rel.Len() != 0 {
		t.Errorf("Len = %d", rel.Len())
	}
}

func TestStoredRelationRoundTrip(t *testing.T) {
	rel := planesRelation(t, 20)
	ps := storage.NewPageStore()
	stored, err := StoreRelation(rel, ps)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Len() != rel.Len() {
		t.Fatalf("stored rows = %d", stored.Len())
	}
	back, err := stored.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range back.Scan() {
		orig := rel.Scan()[i]
		if Get[string](back, tu, "id") != Get[string](rel, orig, "id") {
			t.Fatal("id mismatch after storage round trip")
		}
		p1 := Get[moving.MPoint](back, tu, "flight")
		p2 := Get[moving.MPoint](rel, orig, "flight")
		if p1.M.Len() != p2.M.Len() {
			t.Fatal("unit count mismatch after round trip")
		}
		mid, _ := p2.DefTime().Min()
		if p1.AtInstant(mid) != p2.AtInstant(mid) {
			t.Fatal("position mismatch after round trip")
		}
	}
	if stored.InlineBytes() == 0 {
		t.Error("no inline bytes accounted")
	}
}

func TestStoredRelationWithRegions(t *testing.T) {
	g := workload.New(11)
	rel := NewRelation("storms", Schema{
		{Name: "name", Type: TString},
		{Name: "area", Type: TMRegion},
	})
	for i := 0; i < 3; i++ {
		rel.MustInsert(Tuple{string(rune('A' + i)), g.Storm(0, 10, 8, 5)})
	}
	ps := storage.NewPageStore()
	stored, err := StoreRelation(rel, ps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := stored.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range back.Scan() {
		mr := Get[moving.MRegion](back, tu, "area")
		orig := Get[moving.MRegion](rel, rel.Scan()[i], "area")
		r1, ok1 := mr.AtInstant(25)
		r2, ok2 := orig.AtInstant(25)
		if ok1 != ok2 || math.Abs(r1.Area()-r2.Area()) > 1e-9 {
			t.Fatalf("region snapshot mismatch after round trip")
		}
	}
	// Storm units are large enough to spill externally.
	if stored.ExternalPages() == 0 {
		t.Error("moving regions did not spill to the page store")
	}
	_ = geom.Pt(0, 0)
}

func TestStoredRelationAllTypes(t *testing.T) {
	// Every attribute type of the type table survives the storage round
	// trip inside a relation.
	samples := typeSamples(t)
	var schema Schema
	var tuple Tuple
	for i := range typeTable {
		at := AttrType(i)
		schema = append(schema, Column{Name: at.String(), Type: at})
		tuple = append(tuple, samples[at].v)
	}
	rel := NewRelation("everything", schema)
	rel.MustInsert(tuple)
	ps := storage.NewPageStore()
	stored, err := StoreRelation(rel, ps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := stored.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back.Scan()[0] {
		at := schema[i].Type
		if !typeOK(at, v) || !samples[at].check(v) {
			t.Errorf("%s lost in the storage round trip: %v", at, v)
		}
	}
}
