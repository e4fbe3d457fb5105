package db

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The query language is the minimal SQL dialect the paper's Section 2
// examples are written in: SELECT-FROM-WHERE over relations with moving
// object attributes, expressions built from the model's operations
// (length, trajectory, distance, atmin, initial, val, inside, ...).

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokOp      // < > <= >= = <>
	tokArith   // + - * /
	tokKeyword // SELECT FROM WHERE AND OR NOT AS TRUE FALSE
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

// maxTokensHint caps the token slice lex allocates up front, so a query
// that is mostly one long string literal or whitespace does not reserve
// room in proportion to its bytes. It covers the benchmark's templates.
const maxTokensHint = 64

// keywords are the dialect's reserved words, in the spelling the lexer
// gives them whatever case they were written in.
var keywords = []string{
	"SELECT", "FROM", "WHERE",
	"AND", "OR", "NOT", "AS",
	"TRUE", "FALSE",
	"ORDER", "BY", "GROUP", "ASC", "DESC", "LIMIT",
}

// keyword returns the keyword an ASCII word spells in any case, or ok
// false.
func keyword(word string) (kw string, ok bool) {
	for _, kw := range keywords {
		if len(kw) == len(word) && strings.EqualFold(kw, word) {
			return kw, true
		}
	}
	return "", false
}

// lex splits a query string into tokens. The token slice starts with
// room for a realistic query, at least two bytes a token, up to
// maxTokensHint; a longer one grows it.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, min(len(src)/2+2, maxTokensHint))
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
			toks = append(toks, token{kind: tokArith, text: src[i : i+1], pos: i})
			i++
		case c == '<' || c == '>' || c == '=':
			n := 1
			if c == '<' && i+1 < len(src) && (src[i+1] == '=' || src[i+1] == '>') {
				n = 2
			} else if c == '>' && i+1 < len(src) && src[i+1] == '=' {
				n = 2
			}
			toks = append(toks, token{kind: tokOp, text: src[i : i+n], pos: i})
			i += n
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
			// A byte is read as the Latin-1 rune of its value, so a word
			// may hold bytes from 0x80 up. Such a word is no keyword in
			// any case: the only runes that uppercase to ASCII, ı and ſ,
			// end in bytes that are no letter (± and ¿).
			j, ascii := i, true
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				ascii = ascii && src[j] < utf8.RuneSelf
				j++
			}
			word := src[i:j]
			if kw, ok := keyword(word); ascii && ok {
				toks = append(toks, token{kind: tokKeyword, text: kw, pos: i})
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
