package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Calibration. The sandbox's host changes speed for seconds to minutes
// at a time, and not by its clock: a dependent chain of register
// operations is unaffected while JSON encoding runs 1.8 × slower and map
// lookups 2 × (another tenant on the core's other hardware thread).
// Over 40 runs of query_unique in such a spell the raw request rate
// spread by 21 % of its median; no bound of a tenth means anything under
// that, and no statistic taken inside a run removes it. So the run
// measures the machine as well: a fixed reference kernel —
// standard-library work of the kinds the server does (JSON encoding, map
// lookups, a copy, a sort), none of this repository's code — is timed
// between requests, outside every clock. The operations are cut into
// windows of a quarter to a third of a second (short, because the host
// switches within seconds), and every time measured in a window is
// reported as it would read on a machine where the kernel takes
// refNominal: multiplied by refNominal ÷ the window's median reading.
// Rates are operations ÷ the sum of such times. That brought the 21 % to
// 5 %, and is why the bounds in catalogue.go can be a tenth. The raw
// readings are printed beside the scaled ones as raw_*.
//
// The program does not slow exactly as the kernel does (JSON-heavy
// requests do, tree searches slow less), so a few per cent remain. The
// kernel is part of the benchmark's definition: changing it, or the Go
// release that compiles it, shifts every scaled number.

// refNominal is the reference kernel's time on the nominal machine.
const refNominal = 275 * time.Microsecond

type refPosition struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// reference holds the kernel's fixed inputs and scratch space.
type reference struct {
	positions []refPosition
	ids       map[string]int
	src, dst  []byte
	floats    []float64
	sink      int
}

func newReference() *reference {
	r := &reference{ids: map[string]int{}, src: make([]byte, 64<<10), dst: make([]byte, 64<<10), floats: make([]float64, 2000)}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("obj%d", i)
		r.positions = append(r.positions, refPosition{ID: id, X: float64(i) * 1.37, Y: float64(i) * 2.11})
		r.ids[id] = i
	}
	return r
}

// run returns how long one execution of the kernel takes with its data
// in cache: the kernel runs once unmeasured first, so that the reading
// says how fast the machine is, not what the program under test left in
// the caches.
func (r *reference) run() time.Duration {
	r.kernel()
	return r.kernel()
}

func (r *reference) kernel() time.Duration {
	start := time.Now()
	b, err := json.Marshal(r.positions)
	if err != nil {
		panic(err) // fixed, finite input
	}
	r.sink += len(b)
	for rep := 0; rep < 4; rep++ {
		for _, p := range r.positions {
			r.sink += r.ids[p.ID]
		}
	}
	r.sink += copy(r.dst, r.src)
	for i := range r.floats {
		r.floats[i] = float64((i * 7919) % 2003)
	}
	sort.Float64s(r.floats)
	return time.Since(start)
}

// theReference is built once, before the heap baseline is read (see
// processHeapBase), so that its buffers never count as the program's.
var theReference = newReference()

// speedometer collects reference readings between requests.
type speedometer struct {
	readings []float64
}

// sample takes one reading. Callers keep it outside their own clocks.
func (s *speedometer) sample() { s.readings = append(s.readings, float64(theReference.run())) }

// scale ends a window: it returns the factor that turns a time measured
// since the last call into a time on the nominal machine (nominal ÷
// median reading) and forgets the readings. Without readings it is 1.
func (s *speedometer) scale() float64 {
	if len(s.readings) == 0 {
		return 1
	}
	m := median(s.readings)
	s.readings = s.readings[:0]
	return float64(refNominal) / m
}

// timed runs a one-off operation such as a set-up between two groups
// of three reference readings and returns how long it took, as measured,
// with the factor that brings it to the nominal machine. It collects
// first, so that every repetition starts from the same heap and none
// pays for its predecessor's garbage.
func (s *speedometer) timed(f func() error) (took time.Duration, scale float64, err error) {
	runtime.GC()
	s.readings = s.readings[:0]
	for i := 0; i < 3; i++ {
		s.sample()
	}
	start := time.Now()
	err = f()
	took = time.Since(start)
	for i := 0; i < 3; i++ {
		s.sample()
	}
	return took, s.scale(), err
}
