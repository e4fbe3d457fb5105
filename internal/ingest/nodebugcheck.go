//go:build !debugcheck

package ingest

// debugCubes is off unless built with -tags=debugcheck; see
// debugcheck.go.
const debugCubes = false
