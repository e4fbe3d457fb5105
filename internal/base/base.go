// Package base implements the discrete base types of the moving objects
// data model (Section 3.2.1): int, real, string and bool, each extended
// with the undefined value ⊥, and the intime(α) pairs of Section 3.2.3.
// The range(α) constructor lives in package temporal, beside
// range(instant).
package base

import (
	"fmt"

	"movingdb/internal/temporal"
)

// Value is a base-type value extended with the undefined value ⊥,
// mirroring the paper's carrier sets D_int = int ∪ {⊥} and so on. The
// zero Value is undefined.
type Value[T comparable] struct {
	v       T
	defined bool
}

// Def returns a defined value.
func Def[T comparable](v T) Value[T] { return Value[T]{v: v, defined: true} }

// Undef returns the undefined value ⊥.
func Undef[T comparable]() Value[T] { return Value[T]{} }

// Defined reports whether the value is not ⊥.
func (x Value[T]) Defined() bool { return x.defined }

// Get returns the underlying value; ok is false for ⊥.
func (x Value[T]) Get() (T, bool) { return x.v, x.defined }

// MustGet returns the underlying value and panics on ⊥.
func (x Value[T]) MustGet() T {
	if !x.defined {
		panic("base: undefined value")
	}
	return x.v
}

// Equal reports whether two values are equal; ⊥ equals only ⊥.
func (x Value[T]) Equal(y Value[T]) bool { return x == y }

// String formats the value, rendering ⊥ as "undef".
func (x Value[T]) String() string {
	if !x.defined {
		return "undef"
	}
	return fmt.Sprintf("%v", x.v)
}

// The concrete base types of the model.
type (
	// IntVal is the discrete int type (D_int = int ∪ {⊥}).
	IntVal = Value[int64]
	// RealVal is the discrete real type.
	RealVal = Value[float64]
	// StringVal is the discrete string type.
	StringVal = Value[string]
	// BoolVal is the discrete bool type.
	BoolVal = Value[bool]
	// InstantVal is the discrete instant type (time domain ∪ {⊥}).
	InstantVal = Value[temporal.Instant]
)

// Intime is the intime(α) type constructor: a pair of a time instant and
// a value (Section 3.2.3).
type Intime[T any] struct {
	Inst temporal.Instant
	Val  T
}

// String formats the pair as "(t, v)".
func (p Intime[T]) String() string { return fmt.Sprintf("(%v, %v)", p.Inst, p.Val) }
