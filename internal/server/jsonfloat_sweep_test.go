//go:build !race

package server

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// TestDigits8 runs digits8's fixed-point digit extraction over every
// eight-digit input, against fmt on a sample.
func TestDigits8(t *testing.T) {
	var buf [8]byte
	for v := uint32(0); v < 1e8; v++ {
		binary.BigEndian.PutUint64(buf[:], digits8(v))
		got, ok := uint32(0), true
		for _, c := range buf {
			got, ok = got*10+uint32(c-'0'), ok && '0' <= c && c <= '9'
		}
		if !ok || got != v {
			t.Fatalf("digits8(%d) = %q", v, buf)
		}
		if v%999_983 == 0 && string(buf[:]) != fmt.Sprintf("%08d", v) {
			t.Fatalf("digits8(%d) = %q", v, buf)
		}
	}
}

// TestJSONFloatRandomSweep runs the float writer's oracle over ten
// million seeded values (≈ 9 s). The race detector adds nothing to a
// pure function of one argument and would make it a minute.
func TestJSONFloatRandomSweep(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 500_000
	}
	checkJSONFloatSweep(t, n)
}
