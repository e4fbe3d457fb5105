package ingest

import (
	"testing"
	"time"
)

// This file's name sorts before every other test file of the package,
// so its tests run first: an age ticker that never exits would hang any
// earlier test's Close until the go test timeout, with a goroutine dump
// and no test name.

// TestCloseReturnsPromptly bounds Close, which waits for the age ticker
// goroutine. It panics rather than calling t.Fatal, so the binary stops
// in seconds instead of hanging on the next test's Close.
func TestCloseReturnsPromptly(t *testing.T) {
	p, err := Open(Config{MaxAge: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest([]Observation{{ObjectID: "a", T: 1}}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		panic("ingest: Pipeline.Close did not return within 5s; the age ticker goroutine never exits")
	}
}
