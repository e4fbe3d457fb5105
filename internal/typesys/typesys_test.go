package typesys

import (
	"slices"
	"strings"
	"testing"
)

func TestAbstractTable1(t *testing.T) {
	s := Abstract()
	types := s.Types()
	// The abstract system generates: 4 base + 4 spatial + instant +
	// range over (4 base + instant) + intime/moving over (4 base + 4
	// spatial) = 9 + 5 + 16 = 30 types.
	if len(types) != 30 {
		t.Fatalf("abstract types = %d", len(types))
	}
	for _, want := range []string{"int", "region", "range(instant)", "moving(point)", "moving(region)", "intime(bool)"} {
		if !s.HasType(parse1(want)) {
			t.Errorf("missing type %s", want)
		}
	}
	if s.HasType(T("moving", T("instant"))) {
		t.Error("moving(instant) must not be generated")
	}
	if s.HasType(T("range", T("region"))) {
		t.Error("range(region) must not be generated")
	}
}

func TestDiscreteTable2(t *testing.T) {
	s := Discrete()
	for _, want := range []string{
		"const(int)", "const(region)", "ureal", "upoint", "uregion",
		"mapping(const)", // mapping over the UNIT kind members
	} {
		_ = want
	}
	// mapping ranges over the UNIT kind: const (8 instances collapse to
	// one constructor row listing), ureal, upoint, upoints, uline,
	// uregion.
	found := map[string]bool{}
	for _, ty := range s.Types() {
		found[ty.String()] = true
	}
	for _, want := range []string{"const(int)", "const(region)", "ureal", "uregion", "mapping(ureal)", "mapping(upoint)", "mapping(const)"} {
		if want == "mapping(const)" {
			continue // const is parameterised; mapping(const(int)) is spelled via Table 3
		}
		if !found[want] {
			t.Errorf("missing discrete type %s", want)
		}
	}
	if _, ok := s.KindOf("uregion"); !ok {
		t.Error("KindOf(uregion) failed")
	}
	if k, _ := s.KindOf("mapping"); k != KindMapping {
		t.Error("mapping kind wrong")
	}
	if _, ok := s.KindOf("nonsense"); ok {
		t.Error("unknown constructor resolved")
	}
}

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 8 {
		t.Fatalf("table 3 rows = %d", len(rows))
	}
	want := map[string]string{
		"moving(int)":    "mapping(const(int))",
		"moving(string)": "mapping(const(string))",
		"moving(bool)":   "mapping(const(bool))",
		"moving(real)":   "mapping(ureal)",
		"moving(point)":  "mapping(upoint)",
		"moving(points)": "mapping(upoints)",
		"moving(line)":   "mapping(uline)",
		"moving(region)": "mapping(uregion)",
	}
	for _, r := range rows {
		if want[r.Abstract.String()] != r.Discrete.String() {
			t.Errorf("%s ↦ %s, want %s", r.Abstract, r.Discrete, want[r.Abstract.String()])
		}
	}
}

func TestFormatTables(t *testing.T) {
	t1 := Abstract().FormatTable()
	if !strings.Contains(t1, "moving") || !strings.Contains(t1, "BASE ∪ SPATIAL") {
		t.Errorf("table 1 format:\n%s", t1)
	}
	t2 := Discrete().FormatTable()
	if !strings.Contains(t2, "uregion") || !strings.Contains(t2, "UNIT") {
		t.Errorf("table 2 format:\n%s", t2)
	}
	t3 := FormatTable3()
	if !strings.Contains(t3, "mapping(upoint)") {
		t.Errorf("table 3 format:\n%s", t3)
	}
}

// HasType reports whether the system generates the given type term:
// the membership check of the table tests.
func (s System) HasType(t Type) bool {
	for _, u := range s.Types() {
		if u.String() == t.String() {
			return true
		}
	}
	return false
}

// KindOf returns the result kind of the constructor in the system; ok is
// false for unknown constructors. Like HasType, only the tests ask.
func (s System) KindOf(constructor string) (Kind, bool) {
	for _, r := range s.Rows {
		if slices.Contains(r.Constructors, constructor) {
			return r.Result, true
		}
	}
	return "", false
}

// parse1 parses "ctor" or "ctor(param)" (one level, enough for tests).
func parse1(s string) Type {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return T(s)
	}
	inner := s[open+1 : len(s)-1]
	return T(s[:open], parse1(inner))
}
