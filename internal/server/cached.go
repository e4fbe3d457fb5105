package server

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"movingdb/internal/cache"
	"movingdb/internal/ingest"
)

// The epoch-pinned read path. Every read handler decodes its request,
// pins the current epoch ONCE (Server.pinEpoch), and serves through
// here: the pinned epoch is both the cache-key component and the
// snapshot the compute closure evaluates against, so a response can
// never mix data from two epochs, and a cached body is byte-identical to
// what a fresh evaluation of the same (request, epoch) would produce.
// That identity is what licenses the strong ETag.

// Response header values that never vary, shared by every response
// (net/http only reads them).
var (
	hdrJSON = []string{"application/json"}
	hdrHit  = []string{"hit"}
	hdrMiss = []string{"miss"}
)

// scratch pools the buffers response bodies are built in and ingest
// bodies are read into; what outlives the request is copied out.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// positions pools the buffers an /v1/atinstant miss collects its
// positions in; the body encoded from them is what outlives the request.
// A buffer is never nil, so an empty answer encodes as [], not null.
var positions = sync.Pool{New: func() any { return &[]ingest.Position{} }}

// etagFor derives the strong entity tag of a cache key,
// "<key hash>-<epoch>", and returns with it the epoch as X-MO-Epoch
// spells it — a substring of the tag, so it is formatted once. The
// epoch rides in clear so a tag visibly changes exactly when the data
// does; the hash pins the request. Strong (unprefixed) because equal
// keys yield byte-identical bodies.
func etagFor(k cache.Key) (etag, epoch string) {
	var buf [40]byte // '"', 16 hex digits, '-', 20 digits, '"'
	b := strconv.AppendUint(append(buf[:0], '"'), k.Hash(), 16)
	b = append(b, '-')
	at := len(b)
	b = append(strconv.AppendUint(b, k.Epoch, 10), '"')
	etag = string(b)
	return etag, etag[at : len(etag)-1]
}

// etagMatches implements If-None-Match's weak comparison (RFC 9110
// §13.1.2): a listed tag matches when its quoted part equals ours,
// whether or not it carries W/ (ours never does); "*" matches any.
func etagMatches(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// serveCached answers a read request from the result cache, computing
// and storing on miss (misses for the same key coalesce — one
// evaluation feeds every concurrent duplicate). compute appends the
// body to the scratch buffer it is handed; a right-sized copy is what
// the cache retains. The response carries the strong ETag, and an
// If-None-Match revalidation is answered 304 without touching the cache
// or the data. Every response names its epoch in X-MO-Epoch and its
// cache outcome in X-MO-Cache; header keys are written in canonical
// form so net/http has nothing to normalise.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, k cache.Key, compute func(scratch []byte) ([]byte, error)) {
	et, seq := etagFor(k)
	vals := []string{et, seq} // one allocation carries both header values
	h := w.Header()
	if inm := r.Header["If-None-Match"]; len(inm) > 0 && etagMatches(inm[0], et) {
		h["Etag"], h["X-Mo-Epoch"] = vals[:1:1], vals[1:]
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, hit, err := s.loader.Do(k, func() ([]byte, error) {
		bp := scratch.Get().(*[]byte)
		b, cerr := compute((*bp)[:0])
		exact := bytes.Clone(b) // no capacity beyond its size class
		*bp = b
		scratch.Put(bp)
		return exact, cerr
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	h["Etag"], h["X-Mo-Epoch"] = vals[:1:1], vals[1:]
	h["X-Mo-Cache"] = hdrMiss
	if hit {
		h["X-Mo-Cache"] = hdrHit
	}
	h["Content-Type"] = hdrJSON
	_, _ = w.Write(body)
}
