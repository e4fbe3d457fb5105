package units

import (
	"fmt"

	"movingdb/internal/temporal"
)

// Const is the const(α) type constructor of Section 3.2.5: a unit whose
// function is the constant V over its interval. It represents the
// stepwise-constant slices of moving int, string and bool values (and
// can be applied to any comparable type).
type Const[T comparable] struct {
	Iv temporal.Interval
	V  T
}

// Interval returns the unit interval.
func (u Const[T]) Interval() temporal.Interval { return u.Iv }

// WithInterval returns the same constant on a different interval.
func (u Const[T]) WithInterval(iv temporal.Interval) Const[T] { return Const[T]{Iv: iv, V: u.V} }

// EqualFunc reports whether two units carry the same constant.
func (u Const[T]) EqualFunc(v Const[T]) bool { return u.V == v.V }

// Eval is the trivial ι function: ι(v, t) = v.
func (u Const[T]) Eval(temporal.Instant) T { return u.V }

// String renders the unit as "interval ↦ value".
func (u Const[T]) String() string { return fmt.Sprintf("%v ↦ %v", u.Iv, u.V) }

// The constant unit instantiations used by the moving base types.
type (
	// UBool is const(bool).
	UBool = Const[bool]
	// UInt is const(int).
	UInt = Const[int64]
	// UString is const(string).
	UString = Const[string]
)
