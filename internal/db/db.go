// Package db is a miniature relational engine that embeds the moving
// objects data types as attribute types, playing the role of the
// extensible DBMS (Secondo / Informix data blade) the paper targets. It
// provides schemas, tuples, in-memory and storage-backed relations
// (attributes encoded with the Section 4 data structures, large arrays
// spilled to a page store), and one way to query them: the SQL dialect
// of Section 2, run by Query. The two queries of Section 2 are
// statements in it (see the flights example and cmd/moquery).
package db

import (
	"errors"
	"fmt"
	"strings"

	"movingdb/internal/storage"
)

// AttrType enumerates the attribute types the engine hosts.
type AttrType int

// The supported attribute types: the base types plus the spatial and
// moving types of the model.
const (
	TString AttrType = iota
	TInt
	TReal
	TBool
	TPeriods
	TRegion
	TLine
	TMPoint
	TMRegion
	TMReal
	TMBool
	TMPoints
	TMLine
	TPoints
)

// typeRow is one row of the type table: the attribute type's name in
// the paper, a test that a value holds the type's Go representation, and
// its Section 4 codec.
type typeRow struct {
	name   string
	holds  func(any) bool
	encode func(any) storage.Encoded
	decode func(storage.Encoded) (any, error)
}

// newTypeRow builds the table row of an attribute type whose values are Go
// values of type T, from T's storage codec.
func newTypeRow[T any](name string, enc func(T) storage.Encoded, dec func(storage.Encoded) (T, error)) typeRow {
	return typeRow{
		name:   name,
		holds:  func(v any) bool { _, ok := v.(T); return ok },
		encode: func(v any) storage.Encoded { return enc(v.(T)) },
		decode: func(e storage.Encoded) (any, error) { return dec(e) },
	}
}

// typeTable names each storable attribute type once. TIReal, which a
// query may compute but never store, has no row.
var typeTable = [...]typeRow{
	TString:  newTypeRow("string", storage.EncodeString, storage.DecodeString),
	TInt:     newTypeRow("int", storage.EncodeInt, storage.DecodeInt),
	TReal:    newTypeRow("real", storage.EncodeReal, storage.DecodeReal),
	TBool:    newTypeRow("bool", storage.EncodeBool, storage.DecodeBool),
	TPeriods: newTypeRow("range(instant)", storage.EncodePeriods, storage.DecodePeriods),
	TRegion:  newTypeRow("region", storage.EncodeRegion, storage.DecodeRegion),
	TLine:    newTypeRow("line", storage.EncodeLine, storage.DecodeLine),
	TMPoint:  newTypeRow("mpoint", storage.EncodeMPoint, storage.DecodeMPoint),
	TMRegion: newTypeRow("mregion", storage.EncodeMRegion, storage.DecodeMRegion),
	TMReal:   newTypeRow("mreal", storage.EncodeMReal, storage.DecodeMReal),
	TMBool:   newTypeRow("mbool", storage.EncodeMBool, storage.DecodeMBool),
	TMPoints: newTypeRow("mpoints", storage.EncodeMPoints, storage.DecodeMPoints),
	TMLine:   newTypeRow("mline", storage.EncodeMLine, storage.DecodeMLine),
	TPoints:  newTypeRow("points", storage.EncodePoints, storage.DecodePoints),
}

// row returns t's row of the type table; false for a type without one.
func (t AttrType) row() (typeRow, bool) {
	if t < 0 || int(t) >= len(typeTable) {
		return typeRow{}, false
	}
	return typeTable[t], true
}

// String names the attribute type as in the paper's examples.
func (t AttrType) String() string {
	if r, ok := t.row(); ok {
		return r.name
	}
	if t == TIReal {
		return "intime(real)"
	}
	return fmt.Sprintf("AttrType(%d)", int(t))
}

// Column is one attribute of a schema.
type Column struct {
	Name string
	Type AttrType
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column; −1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// String renders the schema as "name(col: type, ...)".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%s: %s", c.Name, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row; values are positional and must match the schema
// types (checked on insert).
type Tuple []any

// ErrSchema reports a schema violation.
var ErrSchema = errors.New("db: schema violation")

// Relation is an in-memory relation.
type Relation struct {
	Name   string
	Schema Schema
	tuples []Tuple
	sum    relBounds // filter summaries of tuples, see filter.go
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Insert appends a tuple after type-checking it against the schema.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("%w: %d values for %d columns", ErrSchema, len(t), len(r.Schema))
	}
	for i, v := range t {
		if !typeOK(r.Schema[i].Type, v) {
			return fmt.Errorf("%w: column %s expects %s, got %T", ErrSchema, r.Schema[i].Name, r.Schema[i].Type, v)
		}
	}
	r.tuples = append(r.tuples, t)
	r.sum = relBounds{} // rebuilt by the next query that filters on r
	return nil
}

// MustInsert is like Insert but panics on schema violations.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

func typeOK(at AttrType, v any) bool {
	r, ok := at.row()
	return ok && r.holds(v)
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Scan returns the tuples (shared; read-only).
func (r *Relation) Scan() []Tuple { return r.tuples }

// Get returns the value of the named column in the tuple.
func Get[T any](r *Relation, t Tuple, col string) T {
	i := r.Schema.Index(col)
	if i < 0 {
		panic(fmt.Sprintf("db: no column %q in %v", col, r.Schema))
	}
	v, ok := t[i].(T)
	if !ok {
		panic(fmt.Sprintf("db: column %q holds %T", col, t[i]))
	}
	return v
}

// --- storage-backed relations ---

// StoredRelation keeps every attribute in the Section 4 representation:
// root record plus arrays, small arrays inline in the tuple, large ones
// in the page store. Scanning decodes on the fly — the round trip every
// attribute of a real data blade makes.
type StoredRelation struct {
	Name   string
	Schema Schema
	Store  *storage.PageStore
	rows   [][]storage.StoredValue
}

// StoreRelation encodes an in-memory relation into a stored one.
func StoreRelation(r *Relation, ps *storage.PageStore) (*StoredRelation, error) {
	out := &StoredRelation{Name: r.Name, Schema: r.Schema, Store: ps}
	for _, t := range r.tuples {
		row := make([]storage.StoredValue, len(t))
		for i, v := range t {
			enc, err := encodeAttr(r.Schema[i].Type, v)
			if err != nil {
				return nil, err
			}
			row[i] = storage.Store(ps, enc)
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// Len returns the number of stored tuples.
func (r *StoredRelation) Len() int { return len(r.rows) }

// InlineBytes returns the total tuple-resident size.
func (r *StoredRelation) InlineBytes() int {
	n := 0
	for _, row := range r.rows {
		for _, v := range row {
			n += v.InlineSize()
		}
	}
	return n
}

// ExternalPages returns the total number of LOB pages.
func (r *StoredRelation) ExternalPages() int {
	n := 0
	for _, row := range r.rows {
		for _, v := range row {
			n += v.ExternalPages()
		}
	}
	return n
}

// Load decodes the stored relation back into memory.
func (r *StoredRelation) Load() (*Relation, error) {
	out := NewRelation(r.Name, r.Schema)
	for _, row := range r.rows {
		t := make(Tuple, len(row))
		for i, sv := range row {
			enc, err := storage.Load(r.Store, sv)
			if err != nil {
				return nil, err
			}
			v, err := decodeAttr(r.Schema[i].Type, enc)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		out.tuples = append(out.tuples, t)
	}
	return out, nil
}

func encodeAttr(at AttrType, v any) (storage.Encoded, error) {
	r, ok := at.row()
	if !ok {
		return storage.Encoded{}, fmt.Errorf("%w: unsupported attribute type %v", ErrSchema, at)
	}
	return r.encode(v), nil
}

func decodeAttr(at AttrType, e storage.Encoded) (any, error) {
	r, ok := at.row()
	if !ok {
		return nil, fmt.Errorf("%w: unsupported attribute type %v", ErrSchema, at)
	}
	return r.decode(e)
}
