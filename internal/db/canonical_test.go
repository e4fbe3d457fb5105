package db

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestCanonicalNormalises(t *testing.T) {
	cases := []struct{ a, b string }{
		{"select * from flights", "SELECT   *   FROM flights"},
		{"SELECT id FROM f WHERE x = 0.50", "select id from f where x=0.5e0"},
		{"SELECT length(f.route) FROM flights AS f", "select length( f . route )  from flights as f"},
		{`SELECT id FROM f WHERE name = "LH 257"`, "SELECT id FROM f WHERE name = 'LH 257'"},
		{"SELECT a+b, c FROM r", "select a + b , c from r"},
	}
	for _, c := range cases {
		ca, err := Canonical(c.a)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", c.a, err)
		}
		cb, err := Canonical(c.b)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", c.b, err)
		}
		if ca != cb {
			t.Errorf("equivalent queries canonicalised apart:\n %q -> %q\n %q -> %q", c.a, ca, c.b, cb)
		}
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	a, _ := Canonical("SELECT id FROM f WHERE x = 1")
	b, _ := Canonical("SELECT id FROM f WHERE x = 2")
	if a == b {
		t.Fatalf("distinct queries collapsed to %q", a)
	}
	// Identifier case is significant (column names are case-sensitive).
	a, _ = Canonical("SELECT Id FROM f")
	b, _ = Canonical("SELECT id FROM f")
	if a == b {
		t.Fatal("identifier case was erased")
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	q := "select  id ,  length( route )  from flights where dist <= 52.8"
	once, err := Canonical(q)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Canonical(once)
	if err != nil {
		t.Fatal(err)
	}
	if once != twice {
		t.Fatalf("not idempotent:\n once  %q\n twice %q", once, twice)
	}
}

func TestCanonicalSyntaxError(t *testing.T) {
	if _, err := Canonical("SELECT 'unterminated"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v, want ErrSyntax", err)
	}
	if _, err := parseQuery("SELECT 'unterminated"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("parseQuery err = %v, want ErrSyntax", err)
	}
}

// TestCanonicalKeepsQuotedQuote: a double-quoted literal holding a '
// must not be requoted with ' — `"a' OR '"` would become three tokens
// of a different query (found by FuzzQueryParams as q="'" → 500).
func TestCanonicalKeepsQuotedQuote(t *testing.T) {
	for _, q := range []string{`SELECT id FROM f WHERE id = "a' OR '"`, `SELECT "'"`} {
		c, err := Canonical(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lex(q)
		got, err := lex(c)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%q canonicalised to %q: %d tokens (err %v), want %d", q, c, len(got), err, len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || got[i].text != want[i].text {
				t.Fatalf("%q canonicalised to %q: token %d is %q, want %q", q, c, i, got[i].text, want[i].text)
			}
		}
	}
}

func TestSnapshotQueryContext(t *testing.T) {
	r := NewRelation("nums", Schema{{Name: "n", Type: TReal}})
	r.MustInsert(Tuple{1.0})
	r.MustInsert(Tuple{5.0})
	s := Snapshot{Catalog: Catalog{"nums": r}}
	out, err := s.QueryContext(context.Background(), "SELECT n FROM nums WHERE n > 2")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || Get[float64](out, out.Scan()[0], "n") != 5 {
		t.Fatalf("snapshot query returned %v", out.Scan())
	}
}

// FuzzPrepareMatchesRelex holds Prepare to what the serving layer did
// before it: lex the canonical spelling again. For every input the
// statement's SQL is Canonical's, and its tokens (kind, text, the bits
// of num, pos) or its error are those of lexing that SQL; where a number
// meets a '.' the canonical text lexes to other tokens than the input.
func FuzzPrepareMatchesRelex(f *testing.F) {
	for _, q := range []string{
		templateA, templateB, templateC, templateD,
		"select  id ,  length( route )  from flights where dist <= 52.8",
		"SELECT 0.50, .5e0, 1e21, 5e-324 FROM r WHERE s = \"it's\" AND t = 'x'",
		"SELECT 1 .5 FROM r",
		"SELECT p.x FROM r p WHERE 2 . x > 1",
		"SELECT 1 . e FROM r",
		"SELECT 'unterminated",
		"SELECT @ FROM r",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		st, err := Prepare(q)
		c, cerr := Canonical(q)
		if (err == nil) != (cerr == nil) || st.SQL != c {
			t.Fatalf("%q: Prepare %q, %v; Canonical %q, %v", q, st.SQL, err, c, cerr)
		}
		if err != nil {
			return
		}
		want, wantErr := lexStatement(c)
		if (st.err == nil) != (wantErr == nil) || (wantErr != nil && st.err.Error() != wantErr.Error()) {
			t.Fatalf("%q: lexing %q: err %v, want %v", q, c, st.err, wantErr)
		}
		if len(st.toks) != len(want) {
			t.Fatalf("%q: %d tokens %v, want %d %v", q, len(st.toks), st.toks, len(want), want)
		}
		for i, w := range want {
			g := st.toks[i]
			if g.kind != w.kind || g.text != w.text || math.Float64bits(g.num) != math.Float64bits(w.num) || g.pos != w.pos {
				t.Fatalf("%q: token %d is %+v, want %+v (canonical %q)", q, i, g, w, c)
			}
		}
	})
}
