package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"movingdb/internal/db"
	"movingdb/internal/geom"
)

// Typed request decoding. Each read route has a request struct and one
// decode function that performs the whole validation pass; everything
// downstream — evaluation, pagination, the cache key, the ETag — works
// from the decoded struct's canonical() rendering, so a request can
// never be keyed one way and evaluated another. Decode failures carry
// an envelope code (default bad_request) via decodeError.

// decodeError is a validation failure with its envelope code.
type decodeError struct {
	code string
	msg  string
}

func (e *decodeError) Error() string { return e.msg }

// writeDecodeError renders a decode failure as a 400 envelope with the
// error's own code.
func writeDecodeError(w http.ResponseWriter, err error) {
	if de, ok := err.(*decodeError); ok {
		writeError(w, http.StatusBadRequest, de.code, de.msg)
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
}

// params reads query parameters, accumulating the first failure; decode
// functions chain reads and check err() once at the end.
type params struct {
	vals url.Values
	err  *decodeError
}

func newParams(r *http.Request) *params { return &params{vals: r.URL.Query()} }

func (p *params) fail(code, format string, args ...any) {
	if p.err == nil {
		p.err = &decodeError{code: code, msg: fmt.Sprintf(format, args...)}
	}
}

// float reads a required finite float parameter. ParseFloat accepts
// "NaN" and "Inf", which no read route can evaluate or render as JSON.
func (p *params) float(name string) float64 {
	raw := p.vals.Get(name)
	if raw == "" {
		p.fail(CodeBadRequest, "missing %s parameter", name)
		return 0
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		p.fail(CodeBadRequest, "bad %s: %v", name, err)
		return 0
	}
	if isNonFinite(v) {
		p.fail(CodeBadRequest, "bad %s %q: want a finite number", name, raw)
		return 0
	}
	return v
}

// intMin reads an optional integer parameter with a default and an
// exclusive-or-inclusive lower bound (min itself is allowed).
func (p *params) intMin(name string, def, min int) int {
	raw := p.vals.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min {
		kind := "a positive integer"
		if min == 0 {
			kind = "a non-negative integer"
		}
		p.fail(CodeBadRequest, "bad %s %q: want %s", name, raw, kind)
		return def
	}
	return v
}

// timeout reads ?timeout_ms= against the server's default and cap. Only
// /v1/query evaluates under the result; the epoch routes call it so a
// malformed value is a 400 on every read route alike.
func (p *params) timeout(def, max time.Duration) time.Duration {
	raw := p.vals.Get("timeout_ms")
	if raw == "" {
		if def > max {
			return max
		}
		return def
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		p.fail(CodeBadRequest, "bad timeout_ms %q: want a positive integer", raw)
		return def
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		d = max
	}
	return d
}

// pageReq is the resolved pagination of a list request: defaults
// applied, caps enforced. Canonical renderings include the resolved
// values, so "no limit given" and "limit=<default>" share a cache entry.
type pageReq struct {
	Limit  int
	Offset int
}

func (s *Server) decodePageInto(p *params) pageReq {
	limit := p.intMin("limit", s.cfg.DefaultLimit, 1)
	if limit > s.cfg.MaxLimit {
		limit = s.cfg.MaxLimit
	}
	return pageReq{Limit: limit, Offset: p.intMin("offset", 0, 0)}
}

// fmtFloat renders a float in shortest round-trip form — the one
// spelling every canonical string uses, so "10", "10.0" and "1e1" key
// identically.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// windowReq is a decoded /v1/window request. The rectangle is
// normalised (min/max per axis) at decode time, so mirrored corner
// orderings canonicalise — and cache — identically.
type windowReq struct {
	Rect   geom.Rect
	T1, T2 float64
	Page   pageReq
}

func (s *Server) decodeWindow(r *http.Request) (windowReq, error) {
	p := newParams(r)
	x1, y1 := p.float("x1"), p.float("y1")
	x2, y2 := p.float("x2"), p.float("y2")
	t1, t2 := p.float("t1"), p.float("t2")
	req := windowReq{
		Rect: geom.Rect{
			MinX: min(x1, x2), MinY: min(y1, y2),
			MaxX: max(x1, x2), MaxY: max(y1, y2),
		},
		T1: t1, T2: t2,
		Page: s.decodePageInto(p),
	}
	p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)
	if p.err == nil && t2 < t1 {
		p.fail(CodeBadRequest, "t2 before t1")
	}
	if p.err != nil {
		return windowReq{}, p.err
	}
	return req, nil
}

func (q windowReq) canonical() string {
	var b strings.Builder
	b.WriteString("x1=")
	b.WriteString(fmtFloat(q.Rect.MinX))
	b.WriteString("&y1=")
	b.WriteString(fmtFloat(q.Rect.MinY))
	b.WriteString("&x2=")
	b.WriteString(fmtFloat(q.Rect.MaxX))
	b.WriteString("&y2=")
	b.WriteString(fmtFloat(q.Rect.MaxY))
	b.WriteString("&t1=")
	b.WriteString(fmtFloat(q.T1))
	b.WriteString("&t2=")
	b.WriteString(fmtFloat(q.T2))
	b.WriteString("&limit=")
	b.WriteString(strconv.Itoa(q.Page.Limit))
	b.WriteString("&offset=")
	b.WriteString(strconv.Itoa(q.Page.Offset))
	return b.String()
}

// atInstantReq is a decoded /v1/atinstant request.
type atInstantReq struct {
	T float64
}

func (s *Server) decodeAtInstant(r *http.Request) (atInstantReq, error) {
	p := newParams(r)
	req := atInstantReq{T: p.float("t")}
	p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)
	if p.err != nil {
		return atInstantReq{}, p.err
	}
	return req, nil
}

func (q atInstantReq) canonical() string { return "t=" + fmtFloat(q.T) }

// objectsReq is a decoded /v1/objects request.
type objectsReq struct {
	Page pageReq
}

func (s *Server) decodeObjects(r *http.Request) (objectsReq, error) {
	p := newParams(r)
	req := objectsReq{Page: s.decodePageInto(p)}
	if p.err != nil {
		return objectsReq{}, p.err
	}
	return req, nil
}

func (q objectsReq) canonical() string {
	return "limit=" + strconv.Itoa(q.Page.Limit) + "&offset=" + strconv.Itoa(q.Page.Offset)
}

// queryReq is a decoded /v1/query request. SQL is the canonical
// rendering (db.Canonical), so spelling variants of one query share a
// cache entry; Raw keeps the client's text for the slow-query log. The
// timeout is deliberately not part of the canonical form: a shorter
// deadline either produces the same bytes or an error, and errors are
// never cached.
type queryReq struct {
	SQL     string
	Raw     string
	Timeout time.Duration
}

func (s *Server) decodeQuery(r *http.Request) (queryReq, error) {
	p := newParams(r)
	raw := p.vals.Get("q")
	if raw == "" {
		p.fail(CodeBadRequest, "missing q parameter")
	} else if len(raw) > s.cfg.MaxQueryLen {
		p.fail(CodeQueryTooLong, "query is %d bytes; the limit is %d", len(raw), s.cfg.MaxQueryLen)
	}
	req := queryReq{Raw: raw, Timeout: p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)}
	if p.err == nil {
		sql, err := db.Canonical(raw)
		if err != nil {
			p.fail(CodeBadRequest, "%v", err)
		}
		req.SQL = sql
	}
	if p.err != nil {
		return queryReq{}, p.err
	}
	return req, nil
}

func (q queryReq) canonical() string { return "q=" + q.SQL }
