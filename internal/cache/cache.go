// Package cache is the query-result cache of the serving layer,
// modeled as a port with swappable adapters: the ResultCache interface
// is the contract the server programs against, and Memory (a sharded,
// byte-budgeted LRU) is the first adapter behind it. External adapters
// (a shared Redis tier, a disk cache) implement the same interface
// without touching any handler.
//
// The key design carries the correctness argument. A key is
// (route, canonical query, epoch): every query operator in this system
// is deterministic, and an Epoch (internal/ingest) is an immutable
// snapshot, so a result computed against an epoch is a pure function of
// its key — a cached value can never be wrong for its key, only absent.
// Epoch advance therefore invalidates for free: new epoch, new keys,
// and the entries of retired epochs age out of the LRU without any
// explicit purge protocol.
package cache

import "hash/maphash"

// Key identifies one cacheable result. Query must be the canonical
// form of the request (one request shape, one string — the server's
// typed decoders produce it), and Epoch the snapshot sequence the
// result was computed against.
type Key struct {
	Route string
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

// seed is the process-wide hash seed for shard selection. One seed for
// every Memory instance keeps shard choice deterministic within a
// process while still randomising it across processes.
var seed = maphash.MakeSeed()

// shardOf hashes a key onto [0, n). n must be a power of two.
func shardOf(k Key, n int) int {
	var h maphash.Hash
	h.SetSeed(seed)
	_, _ = h.WriteString(k.Route)
	_ = h.WriteByte(0)
	_, _ = h.WriteString(k.Query)
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(k.Epoch >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return int(h.Sum64() & uint64(n-1))
}
