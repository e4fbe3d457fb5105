//go:build !debugcheck

package moving

// countPieces is off unless built with -tags=debugcheck; see
// filter_debugcheck.go.
const countPieces = false
