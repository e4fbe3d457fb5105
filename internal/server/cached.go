package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"

	"movingdb/internal/cache"
)

// The epoch-pinned read path. Every read handler decodes its request,
// pins the current epoch ONCE (Server.pinEpoch), and serves through
// here: the pinned epoch is both the cache-key component and the
// snapshot the compute closure evaluates against, so a response can
// never mix data from two epochs, and a cached body is byte-identical to
// what a fresh evaluation of the same (query, epoch) would produce. That
// identity is what licenses the strong ETag.

// etagFor derives the strong entity tag of a cache key:
// "<hash of route+query>-<epoch>". The epoch rides in clear so a tag
// visibly changes exactly when the data does; the hash part pins the
// request shape. Strong (unprefixed) because equal keys yield
// byte-identical bodies.
func etagFor(k cache.Key) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(k.Route))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(k.Query))
	return fmt.Sprintf("\"%016x-%d\"", h.Sum64(), k.Epoch)
}

// etagMatches implements the strong If-None-Match comparison: an exact
// quoted-tag match or "*". Weak tags (W/"...") never strong-match.
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// serveCached answers a read request from the result cache, computing
// and storing on miss (misses for the same key coalesce — one
// evaluation feeds every concurrent duplicate). The response carries
// the strong ETag, and an If-None-Match revalidation is answered 304
// without touching the cache or the data. Every response names its
// epoch in X-MO-Epoch and its cache outcome in X-MO-Cache.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, route, query string, epoch uint64, compute func() (any, error)) {
	k := cache.Key{Route: route, Query: query, Epoch: epoch}
	seqHdr := strconv.FormatUint(epoch, 10)
	et := etagFor(k)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, et) {
		w.Header().Set("ETag", et)
		w.Header().Set("X-MO-Epoch", seqHdr)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, hit, err := s.loader.Do(k, func() ([]byte, error) {
		v, cerr := compute()
		if cerr != nil {
			return nil, cerr
		}
		b, merr := json.Marshal(v)
		if merr != nil {
			return nil, merr
		}
		return append(b, '\n'), nil
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	w.Header().Set("ETag", et)
	w.Header().Set("X-MO-Epoch", seqHdr)
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	w.Header().Set("X-MO-Cache", outcome)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
