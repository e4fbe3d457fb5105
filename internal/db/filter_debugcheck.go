//go:build debugcheck

package db

// debugFilter makes every guard re-run the kernels for a pair its filter
// excluded and panic unless they yield false — a disagreement is a
// filter that is not conservative, a bug and not an input error.
// Compiled in only under the debugcheck build tag.
const debugFilter = true
