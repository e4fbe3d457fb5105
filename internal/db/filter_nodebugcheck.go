//go:build !debugcheck

package db

// debugFilter is off unless built with -tags=debugcheck; see
// filter_debugcheck.go.
const debugFilter = false
