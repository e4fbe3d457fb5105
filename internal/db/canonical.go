package db

import (
	"context"
	"strconv"
	"strings"
)

// Canonical re-renders a query string into one canonical spelling:
// keywords uppercased, numbers in shortest round-trip form, strings
// single-quoted, and whitespace normalised to single separators. Two
// requests that differ only in case, spacing or numeric spelling
// ("0.50" vs ".5e0") canonicalise to the same string, so the serving
// layer can use the result as a cache-key component and as ETag input
// without equivalent queries fragmenting the cache.
//
// Canonicalisation is lexical only — it does not parse, so it accepts
// some strings the parser later rejects. That is sound for cache keys:
// a canonical form maps to exactly one evaluation outcome, whether that
// outcome is a result or a syntax error. Lexing failures are reported
// as ErrSyntax.
func Canonical(q string) (string, error) {
	st, err := Prepare(q)
	return st.SQL, err
}

// Statement is a query lexed once for the serving layer: SQL is its
// canonical spelling (Canonical), and the statement evaluates to what
// QueryContext answers for SQL, from the tokens of SQL kept beside it.
type Statement struct {
	SQL  string
	toks []token
	err  error // SQL's lexing error: the canonical spelling did not lex
}

// Prepare canonicalises q as Canonical does and keeps the tokens of the
// canonical spelling, so that evaluating the statement does not lex it
// again. The tokens are q's with the positions and number spellings of
// the canonical text; only where a number meets a '.' does the canonical
// text lex differently ("1 .5" is spelled "1.5"), and then it is lexed.
func Prepare(q string) (Statement, error) {
	toks, err := lexStatement(q)
	if err != nil {
		return Statement{}, err
	}
	st := Statement{SQL: render(toks, len(q)), toks: toks}
	for i := 1; i < len(toks); i++ {
		if toks[i-1].kind == tokNumber && toks[i].kind == tokDot {
			st.toks, st.err = lexStatement(st.SQL)
			break
		}
	}
	return st, nil
}

// render writes tokens in the canonical spelling Canonical describes,
// into a buffer of size bytes to start with, and moves each token to
// its position in that spelling, a number to its canonical digits too.
func render(toks []token, size int) string {
	var b strings.Builder
	b.Grow(size)
	prev := token{kind: tokEOF}
	for i := range toks {
		t := &toks[i]
		if t.kind == tokEOF {
			t.pos = b.Len()
			break
		}
		if needSpace(prev, *t) {
			b.WriteByte(' ')
		}
		t.pos = b.Len()
		switch t.kind {
		case tokNumber:
			t.text = strconv.FormatFloat(t.num, 'g', -1, 64)
			b.WriteString(t.text)
		case tokString:
			// A literal cannot contain its own quote, so one holding a '
			// was written in double quotes and must stay so: requoting it
			// would end the string early and evaluate a different query.
			quote := byte('\'')
			if strings.IndexByte(t.text, quote) >= 0 {
				quote = '"'
			}
			b.WriteByte(quote)
			b.WriteString(t.text)
			b.WriteByte(quote)
		default:
			// Keywords are already uppercased by the lexer; idents and
			// punctuation pass through verbatim.
			b.WriteString(t.text)
		}
		prev = *t
	}
	return b.String()
}

// needSpace decides whether a separator goes between two adjacent
// tokens in the canonical rendering. Punctuation binds tightly
// (no space around '.', none before ',' or ')', none after '('); word
// and operator tokens are separated by single spaces.
func needSpace(prev, next token) bool {
	if prev.kind == tokEOF {
		return false
	}
	switch {
	case prev.kind == tokLParen || prev.kind == tokDot:
		return false
	case next.kind == tokComma || next.kind == tokRParen || next.kind == tokDot:
		return false
	case next.kind == tokLParen && prev.kind == tokIdent:
		// Function application: length(route), not length (route).
		return false
	}
	return true
}

// Snapshot pins an immutable catalog: every relation reachable through
// it must never change, so a query result against a Snapshot is a pure
// function of the canonical query — what makes a cached result and its
// ETag sound.
type Snapshot struct {
	Catalog Catalog // immutable
}

// QueryContext evaluates sql against the pinned catalog.
func (s Snapshot) QueryContext(ctx context.Context, sql string) (*Relation, error) {
	return QueryContext(ctx, s.Catalog, sql)
}

// QueryStatement evaluates a prepared statement against the pinned
// catalog: what QueryContext answers for st.SQL.
func (s Snapshot) QueryStatement(ctx context.Context, st Statement) (*Relation, error) {
	return st.query(ctx, s.Catalog)
}
