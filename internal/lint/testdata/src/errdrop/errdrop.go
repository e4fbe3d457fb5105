// Fixture for the err-drop check: discarded error returns in every
// statement shape, plus the shapes that are fine.
package errdrop

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

func fail() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func value() int { return 7 }

func bad() {
	fail()         // want `call discards error result`
	defer fail()   // want `deferred call discards error result`
	go fail()      // want `go statement discards error result`
	_ = fail()     // want `error result assigned to blank identifier`
	n, _ := pair() // want `error result assigned to blank identifier`
	_ = n
	v, _ := strconv.Atoi("7") // want `error result assigned to blank identifier`
	_ = v
}

func good() error {
	value() // no error in the result list: fine
	if err := fail(); err != nil {
		return err
	}
	n, err := pair()
	_ = n // discarding a non-error is fine
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d", n) // infallible writer: fine
	return err
}
