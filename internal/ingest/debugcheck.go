//go:build debugcheck

package ingest

// debugCubes makes every publish recompute, from the units, the cube of
// every slot's open chunk and of every waiting sealed chunk, and
// panic unless each equals, bit for bit, the entry Apply kept: a
// difference is an incremental cube that parted from its units, a bug
// and not an input error. Compiled in only under the debugcheck build
// tag.
const debugCubes = true
