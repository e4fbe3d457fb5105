package ingest

import "movingdb/internal/storage"

// PageIO is the page-granular storage contract the write-ahead log
// runs on. It is the seam where the fault-injection layer
// (internal/fault, matched structurally so neither package imports the
// other) wraps the WAL medium in tests, chaos runs and servers started
// with -failpoints; every other server uses the plain adapter below and
// pays nothing.
//
// Put and Get may fail (a real device can); Truncate and Compact are
// infallible-or-refusable repair tools: Truncate always discards the
// tail (recovery depends on it), and Compact either atomically drops
// the head — the write-new-segment-then-rename idiom — or returns an
// error leaving the log untouched.
type PageIO interface {
	Put(data []byte) (storage.LOBRef, error)
	Get(ref storage.LOBRef) ([]byte, error)
	NumPages() int
	Truncate(n int)
	Compact(n int) error
}

// pageStoreIO adapts the in-memory PageStore — whose operations cannot
// fail — to the PageIO contract.
type pageStoreIO struct{ ps *storage.PageStore }

func (a pageStoreIO) Put(data []byte) (storage.LOBRef, error) { return a.ps.Put(data), nil }
func (a pageStoreIO) Get(ref storage.LOBRef) ([]byte, error)  { return a.ps.Get(ref) }
func (a pageStoreIO) NumPages() int                           { return a.ps.NumPages() }
func (a pageStoreIO) Truncate(n int)                          { a.ps.Truncate(n) }
func (a pageStoreIO) Compact(n int) error                     { a.ps.Compact(n); return nil }
