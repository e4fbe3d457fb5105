// Package cache is the query-result cache of the serving layer,
// modeled as a port with swappable adapters: the ResultCache interface
// is the contract the server programs against, and Memory (a sharded,
// byte-budgeted segmented LRU: entries nobody has read yet may hold at
// most half of a shard) is the first adapter behind it. External
// adapters (a shared Redis tier, a disk cache) implement the same
// interface without touching any handler.
//
// The key design carries the correctness argument. A key is
// (route, decoded request, epoch): every query operator in this system
// is deterministic, and an Epoch (internal/ingest) is an immutable
// snapshot, so a result computed against an epoch is a pure function of
// its key — a cached value can never be wrong for its key, only absent.
// Epoch advance therefore invalidates by mismatch: new epoch, new keys,
// no purge protocol. Epochs only advance, so an entry of a retired epoch
// can never be asked for again; Memory drops those from its list tails
// on the next Put (memory.go) rather than holding their bodies until
// byte pressure evicts them.
package cache

import "math/bits"

// Key identifies one cacheable result: the route, the decoded request
// and the epoch the result was computed against. The request travels as
// values, not as a rendered string — an epoch route packs its floats
// (math.Float64bits) and integers into Args, /v1/query puts its
// canonical SQL in Query — so building, comparing and hashing a key
// formats and allocates nothing, and two spellings of one request
// ("10", "10.0", "1e1") are the same key because they decode to the
// same bits.
type Key struct {
	Route string
	Args  [8]uint64
	Query string
	Epoch uint64
}

// ResultCache is the port. Implementations must be safe for concurrent
// use; Get returns the stored bytes (which callers must treat as
// immutable) and whether the key was present. Put may decline to store
// (an entry larger than the budget simply isn't cached) — the cache is
// an optimisation, never a source of truth.
type ResultCache interface {
	Get(k Key) ([]byte, bool)
	Put(k Key, v []byte)
}

// Hash is a 64-bit digest of the key: FNV-1a over the strings, one
// multiply-fold per word, a final avalanche. It is a pure function of
// the key (no per-process seed), so the same value picks the shard here
// and names the entity in the server's ETag.
func (k Key) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.Route); i++ {
		h = (h ^ uint64(k.Route[i])) * prime
	}
	h = (h ^ 0xff) * prime // no byte of a path or a query: "ab"+"c" ≠ "a"+"bc"
	for i := 0; i < len(k.Query); i++ {
		h = (h ^ uint64(k.Query[i])) * prime
	}
	for _, a := range k.Args {
		h = bits.RotateLeft64(h^a, 29) * prime
	}
	h = (h ^ k.Epoch) * prime
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}
