package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// The benchmark is one closed loop: a single client issues the next
// request only after the previous response has been read in full. Two
// transports carry it — a keep-alive loopback connection where the
// network stack belongs to the workload, and a direct ServeHTTP call
// where it would only add scheduler noise that is not this repo's code.
// Both time exactly the request/response exchange; building the request,
// hashing the body and checking the answer happen outside the clock.

// reply is what a transport's do hands back (a nil request body means GET,
// otherwise POST): status, body (valid until the next call) and the time
// the exchange took.
type reply struct {
	status int
	body   []byte
	cache  string // X-MO-Cache
	took   time.Duration
}

// loopback drives an httptest server over one keep-alive connection.
type loopback struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newLoopback(ts *httptest.Server) *loopback {
	return &loopback{base: ts.URL, client: ts.Client()}
}

func (l *loopback) do(path string, body []byte) (reply, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	l.buf.Reset()
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	_, err = l.buf.ReadFrom(resp.Body)
	took := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: l.buf.Bytes(), cache: resp.Header.Get("X-MO-Cache"), took: took}, nil
}

// inproc calls the handler directly. The response writer is reused so
// that the driver's own allocations stay off the measured path.
type inproc struct {
	h   http.Handler
	rec recorder
}

type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func newInproc(h http.Handler) *inproc {
	return &inproc{h: h, rec: recorder{hdr: http.Header{}}}
}

func (p *inproc) do(path string, body []byte) (reply, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	return p.serve(httptest.NewRequest(method, path, rd)), nil
}

// serve runs one prepared request; the repeat workload prepares its
// 256 requests once and replays them.
func (p *inproc) serve(req *http.Request) reply {
	clear(p.rec.hdr)
	p.rec.code = http.StatusOK
	p.rec.body.Reset()
	start := time.Now()
	p.h.ServeHTTP(&p.rec, req)
	took := time.Since(start)
	return reply{status: p.rec.code, body: p.rec.body.Bytes(), cache: p.rec.hdr.Get("X-MO-Cache"), took: took}
}

// answers folds every response body of a run into one fnv64a, so two
// runs of one seed can be compared for byte-identical answers.
type answers struct{ h hash.Hash64 }

func newAnswers() *answers { return &answers{h: fnv.New64a()} }

func (a *answers) add(body []byte) {
	_, _ = a.h.Write(body) // hash.Hash never fails
	_, _ = a.h.Write([]byte{0})
}

func (a *answers) sum() string { return fmt.Sprintf("%016x", a.h.Sum64()) }

// num renders a float for a URL query: plain decimal, no exponent (a
// '+' in an exponent would decode as a space).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
