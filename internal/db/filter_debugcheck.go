//go:build debugcheck

package db

// debugFilter makes every guard also evaluate the expression it stands
// for — sometimes(inside(…)) composed from the kernels, the distance
// chain — for every pair it answers and every pair the row loop's
// candidate test refuses for it, and panics unless the two agree: a
// disagreement is a filter that is not conservative or a fused walk that
// parts from the kernels, a bug and not an input error. Compiled in only
// under the debugcheck build tag.
const debugFilter = true
