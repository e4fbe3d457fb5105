package db

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzLexMatchesReference holds lex to the lexer it replaced: for every
// input the same tokens (kind, text, the bits of num, pos) or an error
// for the same inputs, with the same message, and the same Canonical
// bytes, which are cache keys and ETag input.
func FuzzLexMatchesReference(f *testing.F) {
	for _, q := range []string{
		templateA, templateB, templateC, templateD,
		"select Name, MAX(area(extent)) as Peak FROM storms Where name <> 'x' order BY peak desc Limit 3",
		"sElEcT * fRoM r wHeRe NoT TRUE oR false AnD x >= 1 GROUP by x ASC",
		"SELECT selected, fromage, asx, limits, _and, or1 FROM r",
		"ſelect id FROM r",                       // ſ uppercases to S, but its bytes are no letter
		"SELECT id FROM r lımıt 1",               // ı uppercases to I
		"SELECT \xe9t\xe9 FROM r WHERE \xc9 = 1", // raw Latin-1 bytes
		"SELECT caf\u00e9, \u00aa\u00b5\u00ba FROM r",
		"SELECT 1e5, 2.5E-3, 7e+2, 1.5.5, 3e, 1e+ FROM r",
		"SELECT a<=b, a<>b, a>=b, a<b, a>b, a=b, a+b-c*d/e FROM r",
		"SELECT 'unterminated",
		"SELECT \"double 'quoted'\" FROM r",
		"SELECT @ FROM r",
		"",
		"   \t\n",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		want, wantErr := lexReference(q)
		got, err := lex(q)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: err %v, want %v", q, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens %v, want %d %v", q, len(got), got, len(want), want)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.kind != w.kind || g.text != w.text || math.Float64bits(g.num) != math.Float64bits(w.num) || g.pos != w.pos {
				t.Fatalf("%q: token %d is %+v, want %+v", q, i, g, w)
			}
		}
		if wantErr != nil {
			return
		}
		c, err := Canonical(q)
		if err != nil || c != render(want, len(q)) {
			t.Fatalf("%q: Canonical %q, %v; want %q", q, c, err, render(want, len(q)))
		}
	})
}

var referenceKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true, "AS": true,
	"TRUE": true, "FALSE": true,
	"ORDER": true, "BY": true, "GROUP": true, "ASC": true, "DESC": true, "LIMIT": true,
}

// lexReference is the lexer as it was before it learnt to recognise
// keywords without allocating, kept verbatim as FuzzLexMatchesReference's
// oracle.
func lexReference(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == ',':
			toks = append(toks, token{kind: tokComma, text: ",", pos: i})
			i++
		case c == '.':
			toks = append(toks, token{kind: tokDot, text: ".", pos: i})
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "(", pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")", pos: i})
			i++
		case c == '+' || c == '*' || c == '/' || c == '-':
			toks = append(toks, token{kind: tokArith, text: string(c), pos: i})
			i++
		case c == '<' || c == '>' || c == '=':
			op := string(c)
			if c == '<' && i+1 < len(src) && (src[i+1] == '=' || src[i+1] == '>') {
				op += string(src[i+1])
			} else if c == '>' && i+1 < len(src) && src[i+1] == '=' {
				op += "="
			}
			toks = append(toks, token{kind: tokOp, text: op, pos: i})
			i += len(op)
		case c == '\'' || c == '"':
			quote := byte(c)
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("db: unterminated string at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: src[i+1 : j], pos: i})
			i = j + 1
		case unicode.IsDigit(c):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("db: bad number %q at %d", src[i:j], i)
			}
			toks = append(toks, token{kind: tokNumber, text: src[i:j], num: f, pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			if referenceKeywords[strings.ToUpper(word)] {
				toks = append(toks, token{kind: tokKeyword, text: strings.ToUpper(word), pos: i})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: i})
			}
			i = j
		default:
			return nil, fmt.Errorf("db: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}
