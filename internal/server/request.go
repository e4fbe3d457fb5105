package server

import (
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"movingdb/internal/cache"
	"movingdb/internal/db"
	"movingdb/internal/geom"
)

// Typed request decoding. Each read route has a request struct and one
// decode function that performs the whole validation pass; everything
// downstream — evaluation, pagination, the cache key, the ETag — works
// from the decoded struct, whose key() packs its values into the
// cache.Key, so a request can never be keyed one way and evaluated
// another. Decode failures carry an envelope code (default bad_request)
// via decodeError.

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

// The query parameters the routes read.
const (
	pX1 = iota
	pY1
	pX2
	pY2
	pT1
	pT2
	pLimit
	pOffset
	pTimeoutMS
	pT
	pX
	pY
	pK
	pRadius
	pQ
	pSync
	numParams
)

var paramNames = [numParams]string{
	pX1: "x1", pY1: "y1", pX2: "x2", pY2: "y2", pT1: "t1", pT2: "t2",
	pLimit: "limit", pOffset: "offset", pTimeoutMS: "timeout_ms",
	pT: "t", pX: "x", pY: "y", pK: "k", pRadius: "radius", pQ: "q", pSync: "sync",
}

// paramIndex is the inverse of paramNames.
var paramIndex = func() map[string]int {
	m := make(map[string]int, numParams)
	for i, name := range paramNames {
		m[name] = i
	}
	return m
}()

// params holds the first value of each known parameter of one request
// and accumulates the first validation failure; decode functions chain
// reads and check err once at the end.
type params struct {
	vals [numParams]string
	has  uint32 // bit i: vals[i] is taken, possibly by an empty value
	err  *decodeError
}

// parseParams scans a raw query string once, with url.ParseQuery's
// rules (which r.URL.Query() applies): the first value of a name wins,
// '+' and %xx unescape in names and values, and a pair that is empty,
// contains ';' or fails to unescape is dropped — so a later pair of
// the same name can still win. It builds no map and, unless a pair
// really is escaped, no string.
func parseParams(raw string) params {
	var p params
	for raw != "" {
		end, eq, escaped, semi := 0, -1, false, false
		for ; end < len(raw) && raw[end] != '&'; end++ {
			switch raw[end] {
			case '=':
				if eq < 0 {
					eq = end
				}
			case '%', '+':
				escaped = true
			case ';':
				semi = true
			}
		}
		name, val := raw[:end], ""
		if eq >= 0 {
			name, val = raw[:eq], raw[eq+1:end]
		}
		raw = raw[min(end+1, len(raw)):]
		if semi {
			continue
		}
		if escaped {
			var err error
			if name, err = url.QueryUnescape(name); err != nil {
				continue
			}
			if val, err = url.QueryUnescape(val); err != nil {
				continue
			}
		}
		if i, ok := paramIndex[name]; ok && p.has&(1<<i) == 0 {
			p.vals[i], p.has = val, p.has|1<<i
		}
	}
	return p
}

func (p *params) fail(code, msg string) {
	if p.err == nil {
		p.err = &decodeError{code: code, msg: msg}
	}
}

// float reads a required finite float parameter. ParseFloat accepts
// "NaN" and "Inf", which no read route can evaluate or render as JSON.
func (p *params) float(i int) float64 {
	raw := p.vals[i]
	if raw == "" {
		p.fail(CodeBadRequest, "missing "+paramNames[i]+" parameter")
		return 0
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		p.fail(CodeBadRequest, "bad "+paramNames[i]+": "+err.Error())
		return 0
	}
	if isNonFinite(v) {
		p.fail(CodeBadRequest, "bad "+paramNames[i]+" "+strconv.Quote(raw)+": want a finite number")
		return 0
	}
	return v
}

// intMin reads an optional integer parameter with a default and an
// inclusive lower bound.
func (p *params) intMin(i, def, min int) int {
	raw := p.vals[i]
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min {
		kind := "a positive integer"
		if min == 0 {
			kind = "a non-negative integer"
		}
		p.fail(CodeBadRequest, "bad "+paramNames[i]+" "+strconv.Quote(raw)+": want "+kind)
		return def
	}
	return v
}

// timeout reads ?timeout_ms= against the server's default and cap. Only
// /v1/query evaluates under the result; the epoch routes call it so a
// malformed value is a 400 on every read route alike.
func (p *params) timeout(def, max time.Duration) time.Duration {
	raw := p.vals[pTimeoutMS]
	if raw == "" {
		if def > max {
			return max
		}
		return def
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		p.fail(CodeBadRequest, "bad timeout_ms "+strconv.Quote(raw)+": want a positive integer")
		return def
	}
	// Cap in milliseconds: the product with time.Millisecond of a large
	// ms overflows to a negative deadline.
	if ms > int(max/time.Millisecond) {
		return max
	}
	return time.Duration(ms) * time.Millisecond
}

// pageReq is the resolved pagination of a list request: defaults
// applied, caps enforced. Keys carry the resolved values, so "no limit
// given" and "limit=<default>" share a cache entry.
type pageReq struct {
	Limit  int
	Offset int
}

// Pagination of list responses: the limit when none is given, and the
// cap on any limit (and on /v1/nearby's k).
const (
	defaultLimit = 1000
	maxLimit     = 10000
)

func decodePageInto(p *params) pageReq {
	limit := min(p.intMin(pLimit, defaultLimit, 1), maxLimit)
	return pageReq{Limit: limit, Offset: p.intMin(pOffset, 0, 0)}
}

// windowReq is a decoded /v1/window request. The rectangle is
// normalised (min/max per axis) at decode time, so mirrored corner
// orderings key — and cache — identically.
type windowReq struct {
	Rect   geom.Rect
	T1, T2 float64
	Page   pageReq
}

func (s *Server) decodeWindow(r *http.Request) (windowReq, error) {
	p := parseParams(r.URL.RawQuery)
	x1, y1 := p.float(pX1), p.float(pY1)
	x2, y2 := p.float(pX2), p.float(pY2)
	t1, t2 := p.float(pT1), p.float(pT2)
	req := windowReq{
		Rect: geom.Rect{
			MinX: min(x1, x2), MinY: min(y1, y2),
			MaxX: max(x1, x2), MaxY: max(y1, y2),
		},
		T1: t1, T2: t2,
		Page: decodePageInto(&p),
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

func (q windowReq) key(epoch uint64) cache.Key {
	return cache.Key{Route: "/v1/window", Epoch: epoch, Args: [8]uint64{
		math.Float64bits(q.Rect.MinX), math.Float64bits(q.Rect.MinY),
		math.Float64bits(q.Rect.MaxX), math.Float64bits(q.Rect.MaxY),
		math.Float64bits(q.T1), math.Float64bits(q.T2),
		uint64(q.Page.Limit), uint64(q.Page.Offset),
	}}
}

// atInstantReq is a decoded /v1/atinstant request.
type atInstantReq struct {
	T float64
}

func (s *Server) decodeAtInstant(r *http.Request) (atInstantReq, error) {
	p := parseParams(r.URL.RawQuery)
	req := atInstantReq{T: p.float(pT)}
	p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)
	if p.err != nil {
		return atInstantReq{}, p.err
	}
	return req, nil
}

func (q atInstantReq) key(epoch uint64) cache.Key {
	return cache.Key{Route: "/v1/atinstant", Epoch: epoch, Args: [8]uint64{math.Float64bits(q.T)}}
}

// objectsReq is a decoded /v1/objects request.
type objectsReq struct {
	Page pageReq
}

func (s *Server) decodeObjects(r *http.Request) (objectsReq, error) {
	p := parseParams(r.URL.RawQuery)
	req := objectsReq{Page: decodePageInto(&p)}
	if p.err != nil {
		return objectsReq{}, p.err
	}
	return req, nil
}

func (q objectsReq) key(epoch uint64) cache.Key {
	return cache.Key{Route: "/v1/objects", Epoch: epoch, Args: [8]uint64{uint64(q.Page.Limit), uint64(q.Page.Offset)}}
}

// queryReq is a decoded /v1/query request. Stmt is the statement lexed
// once (db.Prepare): its SQL, the canonical rendering, keys the cache,
// so spelling variants of one query share an entry, and a miss
// evaluates it without lexing again; Raw keeps the client's text for
// the slow-query log. The timeout is deliberately not part of the key:
// a shorter deadline either produces the same bytes or an error, and
// errors are never cached. A request that joins a flight whose deadline
// ran out computes under its own (cache.Loader.Do).
type queryReq struct {
	Stmt    db.Statement
	Raw     string
	Timeout time.Duration
}

func (s *Server) decodeQuery(r *http.Request) (queryReq, error) {
	p := parseParams(r.URL.RawQuery)
	raw := p.vals[pQ]
	if raw == "" {
		p.fail(CodeBadRequest, "missing q parameter")
	} else if len(raw) > s.cfg.MaxQueryLen {
		p.fail(CodeQueryTooLong, "query is "+strconv.Itoa(len(raw))+" bytes; the limit is "+strconv.Itoa(s.cfg.MaxQueryLen))
	}
	req := queryReq{Raw: raw, Timeout: p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)}
	if p.err == nil {
		st, err := db.Prepare(raw)
		if err != nil {
			p.fail(CodeBadRequest, err.Error())
		}
		req.Stmt = st
	}
	if p.err != nil {
		return queryReq{}, p.err
	}
	return req, nil
}

func (q queryReq) key(epoch uint64) cache.Key {
	return cache.Key{Route: "/v1/query", Query: q.Stmt.SQL, Epoch: epoch}
}
