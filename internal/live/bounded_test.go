package live

import (
	"testing"
	"time"
)

// This file's name sorts before every test file that starts a notifier
// (the earlier ones build registries without one), so its tests run
// first: a notifier goroutine that never exits would hang any earlier
// test's Close until the go test timeout, with a goroutine dump and no
// test name.

// TestCloseReturnsPromptly bounds Close, which waits for the notifier
// goroutine. It panics rather than calling t.Fatal, so the binary stops
// in seconds instead of hanging on the next test's Close.
func TestCloseReturnsPromptly(t *testing.T) {
	r := NewRegistry(Config{})
	r.Notify(nil, nil)
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		panic("live: Registry.Close did not return within 5s; the notifier goroutine never exits")
	}
}
