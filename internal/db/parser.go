package db

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSyntax reports a malformed query.
var ErrSyntax = errors.New("db: syntax error")

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", k)
		}
		return token{}, fmt.Errorf("%w: expected %s at position %d, got %q", ErrSyntax, want, t.pos, t.text)
	}
	p.advance()
	return t, nil
}

// parseQuery parses a full SELECT statement.
func parseQuery(src string) (*selectStmt, error) {
	toks, err := lexStatement(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// lexStatement lexes a statement; a lexing failure is an ErrSyntax.
func lexStatement(src string) ([]token, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	return toks, nil
}

// parseTokens parses the tokens of a full SELECT statement.
func parseTokens(toks []token) (*selectStmt, error) {
	p := &parser{toks: toks}
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &selectStmt{}
	if p.accept(tokArith, "*") {
		stmt.star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := selectItem{e: e}
			if p.accept(tokKeyword, "AS") {
				id, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				item.alias = id.text
			}
			stmt.items = append(stmt.items, item)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		rel, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		item := fromItem{rel: rel.text, alias: rel.text}
		if p.at(tokIdent, "") {
			item.alias = p.cur().text
			p.advance()
		}
		stmt.from = append(stmt.from, item)
		if !p.accept(tokComma, "") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			ref, ok := e.(colRef)
			if !ok {
				return nil, fmt.Errorf("%w: GROUP BY expects column references", ErrSyntax)
			}
			stmt.groupBy = append(stmt.groupBy, ref)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := orderItem{e: e}
			if p.accept(tokKeyword, "DESC") {
				item.desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			stmt.orderBy = append(stmt.orderBy, item)
			if !p.accept(tokComma, "") {
				break
			}
		}
	}
	stmt.limit = -1
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		if n.num < 0 || n.num != float64(int(n.num)) {
			return nil, fmt.Errorf("%w: LIMIT must be a non-negative integer", ErrSyntax)
		}
		stmt.limit = int(n.num)
	}
	if _, err := p.expect(tokEOF, ""); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseExpr parses an OR-level expression.
func (p *parser) parseExpr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binop{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = binop{op: "AND", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notop{e: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, "") {
		op := p.cur().text
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return binop{op: op, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokArith, "+") || p.at(tokArith, "-") {
		op := p.cur().text
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = binop{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokArith, "*") || p.at(tokArith, "/") {
		op := p.cur().text
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binop{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.accept(tokArith, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negop{e: e}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return literal{v: t.num, t: TReal}, nil
	case t.kind == tokString:
		p.advance()
		return literal{v: t.text, t: TString}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.advance()
		return literal{v: t.text == "TRUE", t: TBool}, nil
	case t.kind == tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ""); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.advance()
		// function call?
		if p.accept(tokLParen, "") {
			var args []expr
			if !p.at(tokRParen, "") {
				for {
					if p.accept(tokArith, "*") {
						args = append(args, starArg{})
					} else {
						a, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						args = append(args, a)
					}
					if !p.accept(tokComma, "") {
						break
					}
				}
			}
			if _, err := p.expect(tokRParen, ""); err != nil {
				return nil, err
			}
			return call{fn: strings.ToLower(t.text), text: t.text, args: args}, nil
		}
		// qualified column?
		if p.accept(tokDot, "") {
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return colRef{qualifier: t.text, name: name.text}, nil
		}
		return colRef{name: t.text}, nil
	}
	return nil, fmt.Errorf("%w: unexpected %q at position %d", ErrSyntax, t.text, t.pos)
}
