// Package storage implements the data structure layer of Section 4: the
// pointer-free attribute representation of every data type as a root
// record plus database arrays (indices instead of pointers, canonical
// element order), the mapping layout of Figure 7 (a units array whose
// variable-size units reference subranges of shared subarrays), an
// inline/external placement policy for arrays (the FLOB behaviour of the
// Secondo environment the paper targets), and a simple page store that
// plays the role of the DBMS buffer/LOB manager.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrCorrupt reports a malformed encoding.
var ErrCorrupt = errors.New("storage: corrupt encoding")

// writer serialises fixed-layout records into a growing byte slice,
// little-endian.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) boolv(b bool) { w.u8(boolByte(b)) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// grow extends the buffer by n bytes and returns them for a put*
// record function to overwrite in full, so capacity reserved up front
// is not cleared a second time.
func (w *writer) grow(n int) []byte {
	w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// reader deserialises from a byte slice, tracking an offset and a sticky
// error so call sites stay linear.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.off)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// boolv reads a bool byte; anything but 0 or 1 is corrupt, so every
// accepted encoding re-encodes to the same bytes.
func (r *reader) boolv() bool {
	v := r.u8()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("%w: bool byte %d at offset %d", ErrCorrupt, v, r.off-1)
	}
	return v == 1
}

// next consumes n bytes for a get* record function; zeros once the
// buffer is short (the sticky error says where).
func (r *reader) next(n int) []byte {
	if r.err != nil || n > len(r.buf)-r.off {
		r.fail("record")
		return make([]byte, n)
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.buf) || n < 0 {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// readRecords reads buf as consecutive records until it is used up; an
// array that ends inside a record is corrupt.
func readRecords[T any](buf []byte, read func(*reader) T) ([]T, error) {
	r := reader{buf: buf}
	var out []T
	for r.off < len(r.buf) && r.err == nil {
		out = append(out, read(&r))
	}
	return out, r.done()
}

// done checks that the whole buffer was consumed.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}
