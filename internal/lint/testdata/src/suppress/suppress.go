// Fixture for the suppression machinery: a respected directive, a
// directive missing its reason (which suppresses nothing and is itself
// a finding), a directive naming an unknown check, and a well-formed
// directive that suppresses nothing (which the stale audit reports as
// a finding of its own).
package suppress

import "errors"

func fail() error { return errors.New("x") }

func respected() {
	//molint:ignore err-drop teardown probe; a failure here cannot mask data loss
	fail()
}

func missingReason() {
	//molint:ignore err-drop
	fail()
}

func unknownCheck() error {
	//molint:ignore no-such-check reasons do not rescue unknown check IDs
	return fail()
}

func stale() int {
	//molint:ignore ctx-loop nothing here selects on a context anymore
	return 0
}

// New fixture content goes below this line: the line numbers above are
// asserted exactly by TestSuppressions.
