// Fixture for the suppression machinery: a respected directive, a
// directive missing its reason (which suppresses nothing and is itself
// a finding), a directive naming an unknown check, and a well-formed
// directive that suppresses nothing (which the stale audit reports as
// a finding of its own).
package suppress

func respected(a float64) bool {
	//molint:ignore float-eq sentinel zero: callers store exact zeros, never computed ones
	return a == 0
}

func missingReason(a float64) bool {
	//molint:ignore float-eq
	return a == 0
}

func unknownCheck(a float64) bool {
	//molint:ignore no-such-check reasons do not rescue unknown check IDs
	return a < 0
}

func stale() int {
	//molint:ignore float-eq nothing here compares floats anymore
	return 0
}

// New fixture content goes below this line: the line numbers above are
// asserted exactly by TestSuppressions.
