// Package db is a miniature relational engine that embeds the moving
// objects data types as attribute types, playing the role of the
// extensible DBMS (Secondo / Informix data blade) the paper targets. It
// provides schemas, tuples, in-memory and storage-backed relations
// (attributes encoded with the Section 4 data structures, large arrays
// spilled to a page store), and the usual iterator operators: scan,
// selection, projection and nested-loop join. The two queries of
// Section 2 are built on top of it (see the flights example and
// cmd/moquery).
package db

import (
	"errors"
	"fmt"
	"strings"

	"movingdb/internal/moving"
	"movingdb/internal/spatial"
	"movingdb/internal/storage"
	"movingdb/internal/temporal"
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

// String names the attribute type as in the paper's examples.
func (t AttrType) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TReal:
		return "real"
	case TBool:
		return "bool"
	case TPeriods:
		return "range(instant)"
	case TRegion:
		return "region"
	case TLine:
		return "line"
	case TMPoint:
		return "mpoint"
	case TMRegion:
		return "mregion"
	case TMReal:
		return "mreal"
	case TMBool:
		return "mbool"
	case TMPoints:
		return "mpoints"
	case TMLine:
		return "mline"
	case TPoints:
		return "points"
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
	switch at {
	case TString:
		_, ok := v.(string)
		return ok
	case TInt:
		_, ok := v.(int64)
		return ok
	case TReal:
		_, ok := v.(float64)
		return ok
	case TBool:
		_, ok := v.(bool)
		return ok
	case TPeriods:
		_, ok := v.(temporal.Periods)
		return ok
	case TRegion:
		_, ok := v.(spatial.Region)
		return ok
	case TLine:
		_, ok := v.(spatial.Line)
		return ok
	case TMPoint:
		_, ok := v.(moving.MPoint)
		return ok
	case TMRegion:
		_, ok := v.(moving.MRegion)
		return ok
	case TMReal:
		_, ok := v.(moving.MReal)
		return ok
	case TMBool:
		_, ok := v.(moving.MBool)
		return ok
	case TMPoints:
		_, ok := v.(moving.MPoints)
		return ok
	case TMLine:
		_, ok := v.(moving.MLine)
		return ok
	case TPoints:
		_, ok := v.(spatial.Points)
		return ok
	}
	return false
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Scan returns the tuples (shared; read-only).
func (r *Relation) Scan() []Tuple { return r.tuples }

// Select returns the tuples satisfying pred, as a new relation with the
// same schema.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := NewRelation(r.Name+"_sel", r.Schema)
	for _, t := range r.tuples {
		if pred(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// Project returns a new relation with only the named columns.
func (r *Relation) Project(cols ...string) (*Relation, error) {
	idx := make([]int, 0, len(cols))
	schema := make(Schema, 0, len(cols))
	for _, c := range cols {
		i := r.Schema.Index(c)
		if i < 0 {
			return nil, fmt.Errorf("%w: no column %q", ErrSchema, c)
		}
		idx = append(idx, i)
		schema = append(schema, r.Schema[i])
	}
	out := NewRelation(r.Name+"_proj", schema)
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for k, i := range idx {
			nt[k] = t[i]
		}
		out.tuples = append(out.tuples, nt)
	}
	return out, nil
}

// Extend returns a new relation with an extra computed column.
func (r *Relation) Extend(name string, at AttrType, f func(Tuple) any) *Relation {
	schema := append(append(Schema{}, r.Schema...), Column{Name: name, Type: at})
	out := NewRelation(r.Name, schema)
	for _, t := range r.tuples {
		nt := append(append(Tuple{}, t...), f(t))
		out.tuples = append(out.tuples, nt)
	}
	return out
}

// Join returns the nested-loop join of r and s on pred; column names of
// s are prefixed when they clash.
func (r *Relation) Join(s *Relation, pred func(a, b Tuple) bool) *Relation {
	schema := append(Schema{}, r.Schema...)
	for _, c := range s.Schema {
		name := c.Name
		if schema.Index(name) >= 0 {
			name = s.Name + "." + name
		}
		schema = append(schema, Column{Name: name, Type: c.Type})
	}
	out := NewRelation(r.Name+"_join_"+s.Name, schema)
	for _, a := range r.tuples {
		for _, b := range s.tuples {
			if pred(a, b) {
				out.tuples = append(out.tuples, append(append(Tuple{}, a...), b...))
			}
		}
	}
	return out
}

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
	switch at {
	case TString:
		return storage.EncodeString(v.(string)), nil
	case TInt:
		return storage.EncodeInt(v.(int64)), nil
	case TReal:
		return storage.EncodeReal(v.(float64)), nil
	case TBool:
		return storage.EncodeBool(v.(bool)), nil
	case TPeriods:
		return storage.EncodePeriods(v.(temporal.Periods)), nil
	case TRegion:
		return storage.EncodeRegion(v.(spatial.Region)), nil
	case TLine:
		return storage.EncodeLine(v.(spatial.Line)), nil
	case TMPoint:
		return storage.EncodeMPoint(v.(moving.MPoint)), nil
	case TMRegion:
		return storage.EncodeMRegion(v.(moving.MRegion)), nil
	case TMReal:
		return storage.EncodeMReal(v.(moving.MReal)), nil
	case TMBool:
		return storage.EncodeMBool(v.(moving.MBool)), nil
	case TMPoints:
		return storage.EncodeMPoints(v.(moving.MPoints)), nil
	case TMLine:
		return storage.EncodeMLine(v.(moving.MLine)), nil
	case TPoints:
		return storage.EncodePoints(v.(spatial.Points)), nil
	}
	return storage.Encoded{}, fmt.Errorf("%w: unsupported attribute type %v", ErrSchema, at)
}

func decodeAttr(at AttrType, e storage.Encoded) (any, error) {
	switch at {
	case TString:
		return storage.DecodeString(e)
	case TInt:
		return storage.DecodeInt(e)
	case TReal:
		return storage.DecodeReal(e)
	case TBool:
		return storage.DecodeBool(e)
	case TPeriods:
		return storage.DecodePeriods(e)
	case TRegion:
		return storage.DecodeRegion(e)
	case TLine:
		return storage.DecodeLine(e)
	case TMPoint:
		return storage.DecodeMPoint(e)
	case TMRegion:
		return storage.DecodeMRegion(e)
	case TMReal:
		return storage.DecodeMReal(e)
	case TMBool:
		return storage.DecodeMBool(e)
	case TMPoints:
		return storage.DecodeMPoints(e)
	case TMLine:
		return storage.DecodeMLine(e)
	case TPoints:
		return storage.DecodePoints(e)
	}
	return nil, fmt.Errorf("%w: unsupported attribute type %v", ErrSchema, at)
}
