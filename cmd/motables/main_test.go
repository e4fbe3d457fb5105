package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTablesFileCurrent holds docs/tables.txt to what motables
// prints: the paper's Tables 1–3 and the operation table SQL binds
// against. `make docs` rewrites the file.
func TestTablesFileCurrent(t *testing.T) {
	var got bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../docs/tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("docs/tables.txt differs from motables (run make docs):\n%s", got.String())
	}
}
