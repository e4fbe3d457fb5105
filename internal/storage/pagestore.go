package storage

import (
	"encoding/binary"
	"fmt"
	"io"
)

// PageSize is the unit of space management in the page store, matching
// common DBMS page sizes.
const PageSize = 4096

// PageStore simulates the DBMS buffer/LOB manager the paper's data
// structures are designed for: values are placed "under control of the
// DBMS into memory", so representations must consist of a small number
// of memory blocks that can be moved efficiently between secondary and
// main memory. Large objects are stored as runs of whole pages;
// statistics expose how many pages a read touches.
type PageStore struct {
	pages [][]byte
	// PagesRead counts the pages Get has touched.
	PagesRead int
}

// NewPageStore returns an empty page store.
func NewPageStore() *PageStore { return &PageStore{} }

// LOBRef identifies a large object: its first page and byte length. Page
// runs are contiguous, so a ref is two integers — index arithmetic, no
// pointers.
type LOBRef struct {
	FirstPage int
	Length    int
}

// NumPages returns the number of pages the object occupies.
func (r LOBRef) NumPages() int { return (r.Length + PageSize - 1) / PageSize }

// Put stores data as a new large object on fresh pages.
func (s *PageStore) Put(data []byte) LOBRef {
	ref := LOBRef{FirstPage: len(s.pages), Length: len(data)}
	for off := 0; off < len(data); off += PageSize {
		end := min(off+PageSize, len(data))
		page := make([]byte, PageSize)
		copy(page, data[off:end])
		s.pages = append(s.pages, page)
	}
	if len(data) == 0 {
		// Zero-length objects still get a ref but no pages.
		ref.FirstPage = -1
	}
	return ref
}

// Get reads a large object back.
func (s *PageStore) Get(ref LOBRef) ([]byte, error) {
	if ref.Length == 0 {
		return nil, nil
	}
	n := ref.NumPages()
	if ref.FirstPage < 0 || ref.FirstPage+n > len(s.pages) {
		return nil, fmt.Errorf("%w: LOB ref out of range", ErrCorrupt)
	}
	out := make([]byte, 0, ref.Length)
	for i := 0; i < n; i++ {
		s.PagesRead++
		page := s.pages[ref.FirstPage+i]
		take := min(PageSize, ref.Length-len(out))
		out = append(out, page[:take]...)
	}
	return out, nil
}

// NumPages returns the total number of allocated pages.
func (s *PageStore) NumPages() int { return len(s.pages) }

// Truncate drops every page from n on. WAL recovery uses it to discard
// a torn tail so subsequent appends are reachable by the next scan.
func (s *PageStore) Truncate(n int) {
	if n >= 0 && n < len(s.pages) {
		s.pages = s.pages[:n]
	}
}

// Compact drops the first n pages, renumbering the remainder down to
// start at page 0. It is the in-memory stand-in for the
// write-new-segment-then-rename idiom a file-backed log uses to shrink
// its head atomically: the operation either happens entirely or not at
// all, never leaving a half-moved prefix. It is only meaningful for
// stores whose refs are re-derived by scanning (such as the ingestion
// WAL); LOBRefs held elsewhere are invalidated by the renumbering.
func (s *PageStore) Compact(n int) {
	if n <= 0 {
		return
	}
	if n > len(s.pages) {
		n = len(s.pages)
	}
	s.pages = append([][]byte(nil), s.pages[n:]...)
}

// pageStoreMagic identifies a serialised page store image.
const pageStoreMagic = 0x4D504753 // "MPGS"

// WriteTo serialises the page store — magic, page count, raw pages —
// producing the "disk image" of the simulated buffer manager, so state
// built on the store (such as the ingestion WAL) genuinely survives a
// process restart. Statistics counters are not persisted.
func (s *PageStore) WriteTo(w io.Writer) (int64, error) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], pageStoreMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(s.pages)))
	n, err := w.Write(hdr[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	for _, p := range s.pages {
		n, err := w.Write(p)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadPageStore reverses WriteTo.
func ReadPageStore(r io.Reader) (*PageStore, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: page store header: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pageStoreMagic {
		return nil, fmt.Errorf("%w: not a page store image", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(hdr[4:])
	s := NewPageStore()
	for i := uint64(0); i < count; i++ {
		page := make([]byte, PageSize)
		if _, err := io.ReadFull(r, page); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrCorrupt, i, err)
		}
		s.pages = append(s.pages, page)
	}
	return s, nil
}

// RecoverPageStore is the crash-tolerant image loader: where
// ReadPageStore rejects any truncation, this reads as much of the image
// as survived. A header too short to parse yields an empty store; a
// partial final page is discarded as a torn write; a page count larger
// than the bytes present keeps exactly the whole pages read. Only a
// foreign format (wrong magic) is an error — truncation is a crash
// artifact the WAL layer recovers from, a different format is not. The
// second result is the number of claimed pages that were lost.
func RecoverPageStore(r io.Reader) (*PageStore, int, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return NewPageStore(), 0, nil
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pageStoreMagic {
		return nil, 0, fmt.Errorf("%w: not a page store image", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(hdr[4:])
	s := NewPageStore()
	for i := uint64(0); i < count; i++ {
		page := make([]byte, PageSize)
		if _, err := io.ReadFull(r, page); err != nil {
			break // torn: whole pages up to here survive
		}
		s.pages = append(s.pages, page)
	}
	lost := count - uint64(len(s.pages))
	if lost > 1<<31 {
		lost = 1 << 31 // a corrupt claimed count; the real loss is unknowable
	}
	return s, int(lost), nil
}

// InlineThreshold is the array size up to which arrays are stored inline
// in the tuple; larger arrays go to the page store (the FLOB policy of
// [DG98] the paper references).
const InlineThreshold = 256

// StoredValue is the tuple-level representation of one attribute value:
// the root record and small arrays inline, large arrays as LOB
// references.
type StoredValue struct {
	Root   []byte
	Inline [][]byte // nil entry when the array is external
	Refs   []LOBRef // valid where Inline[i] == nil
}

// InlineSize returns the number of bytes this value occupies inside the
// tuple.
func (v StoredValue) InlineSize() int {
	n := len(v.Root)
	for _, a := range v.Inline {
		n += len(a)
	}
	n += 16 * len(v.Refs) // ref slots
	return n
}

// ExternalPages returns the number of pages occupied outside the tuple.
func (v StoredValue) ExternalPages() int {
	n := 0
	for i, inl := range v.Inline {
		if inl == nil {
			n += v.Refs[i].NumPages()
		}
	}
	return n
}

// Store places an encoded value into the tuple/LOB split: arrays up to
// InlineThreshold bytes stay inline, larger ones move to the page store.
func Store(ps *PageStore, e Encoded) StoredValue {
	v := StoredValue{
		Root:   append([]byte(nil), e.Root...),
		Inline: make([][]byte, len(e.Arrays)),
		Refs:   make([]LOBRef, len(e.Arrays)),
	}
	for i, a := range e.Arrays {
		if len(a) <= InlineThreshold {
			v.Inline[i] = append([]byte(nil), a...)
		} else {
			v.Refs[i] = ps.Put(a)
		}
	}
	return v
}

// Load reassembles the encoded value, reading external arrays from the
// page store.
func Load(ps *PageStore, v StoredValue) (Encoded, error) {
	e := Encoded{Root: v.Root, Arrays: make([][]byte, len(v.Inline))}
	for i, inl := range v.Inline {
		if inl != nil {
			e.Arrays[i] = inl
			continue
		}
		a, err := ps.Get(v.Refs[i])
		if err != nil {
			return Encoded{}, err
		}
		e.Arrays[i] = a
	}
	return e, nil
}
