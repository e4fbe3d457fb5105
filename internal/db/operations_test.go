package db

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestOperationsListFuncTable: Operations lists each overload of the
// operation table once, grouped under names that are each listed once.
func TestOperationsListFuncTable(t *testing.T) {
	ops := Operations()
	want := 0
	for _, ovs := range funcTable {
		want += len(ovs)
	}
	if len(ops) != want {
		t.Fatalf("Operations lists %d signatures, funcTable holds %d", len(ops), want)
	}
	seen := map[string]bool{}
	for i, s := range ops {
		if i > 0 && ops[i-1].Name != s.Name && seen[s.Name] {
			t.Errorf("%s listed apart from its other overloads", s.Name)
		}
		seen[s.Name] = true
	}
	if len(seen) != len(funcTable) {
		t.Errorf("Operations names %d operations, funcTable %d", len(seen), len(funcTable))
	}
}

// TestOperationsBind calls every listed signature in SQL over a relation
// with one column of each argument type (an intime(real) argument is
// initial of the mreal column, since no column stores one): each call
// binds to the listed result type, and each whose result can be
// selected answers the relation's one row.
func TestOperationsBind(t *testing.T) {
	samples := typeSamples(t)
	column := func(at AttrType) string { return fmt.Sprintf("c%d", int(at)) }
	var schema Schema
	var row Tuple
	for at, s := range samples {
		schema = append(schema, Column{Name: column(at), Type: at})
		row = append(row, s.v)
	}
	rel := NewRelation("r", schema)
	rel.MustInsert(row)
	cat := Catalog{"r": rel}
	for _, sig := range Operations() {
		args := make([]string, len(sig.Args))
		for i, at := range sig.Args {
			args[i] = column(at)
			if at == TIReal {
				args[i] = "initial(" + column(TMReal) + ")"
			}
		}
		sql := fmt.Sprintf("SELECT %s(%s) FROM r", sig.Name, strings.Join(args, ", "))
		stmt, err := parseQuery(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		env := &queryEnv{ctx: context.Background(), binds: []binding{{alias: "r", rel: rel}}}
		if _, got, err := env.bind(stmt.items[0].e); err != nil || got != sig.Result {
			t.Errorf("%s: binds to %v, %v; listed %v", sql, got, err, sig.Result)
			continue
		}
		if sig.Result == TIReal {
			continue // intime values cannot be selected
		}
		res, err := Query(cat, sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if res.Len() != 1 || res.Schema[0].Type != sig.Result {
			t.Errorf("%s: %d rows of %s, want one of %s", sql, res.Len(), res.Schema[0].Type, sig.Result)
		}
	}
}
