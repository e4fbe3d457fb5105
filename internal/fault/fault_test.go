package fault

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"movingdb/internal/storage"
)

func TestErrorOnceThenClean(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeError, Times: 1})
	st := NewStore(in, "wal", storage.NewPageStore())
	if _, err := st.Put([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first put: want injected error, got %v", err)
	}
	if st.NumPages() != 0 {
		t.Fatalf("failed put landed pages: %d", st.NumPages())
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Put([]byte("x")); err != nil {
			t.Fatalf("put %d after budget spent: %v", i, err)
		}
	}
	if got := in.Trips("wal.put"); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
}

func TestErrorNTimes(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeError, Times: 3})
	st := NewStore(in, "wal", storage.NewPageStore())
	for i := 0; i < 3; i++ {
		if _, err := st.Put([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("put %d: want injected error, got %v", i, err)
		}
	}
	if _, err := st.Put([]byte("x")); err != nil {
		t.Fatalf("put after budget: %v", err)
	}
}

func TestPersistentFaultAndClear(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeError}) // Times 0 = forever
	st := NewStore(in, "wal", storage.NewPageStore())
	for i := 0; i < 10; i++ {
		if _, err := st.Put([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("put %d: want injected error, got %v", i, err)
		}
	}
	in.Clear("wal.put")
	if _, err := st.Put([]byte("x")); err != nil {
		t.Fatalf("put after clear: %v", err)
	}
}

// TestProbDeterminism pins the seeded-RNG contract: the same seed and
// hit sequence trip the same subset of hits, and a different seed trips
// a different one.
func TestProbDeterminism(t *testing.T) {
	trace := func(seed int64) []bool {
		in := New(seed)
		in.Set("wal.put", Spec{Mode: ModeError, Prob: 0.3})
		st := NewStore(in, "wal", storage.NewPageStore())
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := st.Put([]byte("x"))
			out = append(out, err != nil)
		}
		return out
	}
	a, b := trace(7), trace(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := trace(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-hit schedules")
	}
}

// TestTornWrite checks the partial-write mode: a prefix of the bytes
// lands (whole pages, like a real device) and the operation fails.
func TestTornWrite(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeTorn, Times: 1, KeepFraction: 0.5})
	ps := storage.NewPageStore()
	st := NewStore(in, "wal", ps)
	data := bytes.Repeat([]byte{0xCD}, 4*storage.PageSize)
	_, err := st.Put(data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put: want injected error, got %v", err)
	}
	if n := ps.NumPages(); n == 0 || n >= 4 {
		t.Fatalf("torn put landed %d pages, want a strict non-empty prefix of 4", n)
	}
	got, gerr := ps.Get(storage.LOBRef{FirstPage: 0, Length: storage.PageSize})
	if gerr != nil || !bytes.Equal(got, data[:storage.PageSize]) {
		t.Fatalf("torn bytes are not a prefix of the write")
	}
}

func TestLatencyProceeds(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeLatency, Times: 1, Delay: 10 * time.Millisecond})
	st := NewStore(in, "wal", storage.NewPageStore())
	start := time.Now()
	if _, err := st.Put([]byte("x")); err != nil {
		t.Fatalf("latency put failed: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("latency not injected: took %v", d)
	}
	if st.NumPages() == 0 {
		t.Fatal("latency put did not land")
	}
}

func TestGetAndCompactSites(t *testing.T) {
	in := New(1)
	ps := storage.NewPageStore()
	st := NewStore(in, "wal", ps)
	ref, _ := st.Put(bytes.Repeat([]byte{1}, 3*storage.PageSize))
	in.Set("wal.get", Spec{Mode: ModeError, Times: 1})
	if _, err := st.Get(ref); !errors.Is(err, ErrInjected) {
		t.Fatalf("get: want injected error, got %v", err)
	}
	if _, err := st.Get(ref); err != nil {
		t.Fatalf("get after budget: %v", err)
	}
	in.Set("wal.compact", Spec{Mode: ModeError, Times: 1})
	if err := st.Compact(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("compact: want injected error, got %v", err)
	}
	if ps.NumPages() != 3 {
		t.Fatalf("refused compact mutated the store: %d pages", ps.NumPages())
	}
	if err := st.Compact(1); err != nil || ps.NumPages() != 2 {
		t.Fatalf("compact after budget: err=%v pages=%d", err, ps.NumPages())
	}
}

// TestNilInjector pins the nil-safety contract: a nil injector never
// trips, so production wiring can pass one through unconditionally.
func TestNilInjector(t *testing.T) {
	var in *Injector
	in.Set("x", Spec{Mode: ModeError})
	in.Clear("x")
	in.ClearAll()
	if in.Trips("x") != 0 {
		t.Fatal("nil injector reported trips")
	}
	st := NewStore(in, "wal", storage.NewPageStore())
	if _, err := st.Put([]byte("x")); err != nil {
		t.Fatalf("nil-injector put failed: %v", err)
	}
}

func TestWriterFailsAfterBudget(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, FailAfter: 10}
	if n, err := w.Write([]byte("12345")); n != 5 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err := w.Write([]byte("6789012345"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("budget-crossing write: n=%d err=%v", n, err)
	}
	if buf.String() != "1234567890" {
		t.Fatalf("written bytes %q, want the first 10", buf.String())
	}
	if n, err := w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write after failure: n=%d err=%v", n, err)
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("wal.put=error:3; wal.get=latency:5ms,prob=0.1 ;wal.compact=torn:0.25,times=2")
	if err != nil {
		t.Fatal(err)
	}
	if s := specs["wal.put"]; s.Mode != ModeError || s.Times != 3 {
		t.Fatalf("wal.put = %+v", s)
	}
	if s := specs["wal.get"]; s.Mode != ModeLatency || s.Delay != 5*time.Millisecond || s.Prob != 0.1 {
		t.Fatalf("wal.get = %+v", s)
	}
	if s := specs["wal.compact"]; s.Mode != ModeTorn || s.KeepFraction != 0.25 || s.Times != 2 {
		t.Fatalf("wal.compact = %+v", s)
	}
	for _, bad := range []string{
		"", "   ", "x", "x=", "=error", "wal.put=nope", "wal.put=error:y", "wal.put=error:-1",
		"wal.put=torn:0", "wal.put=torn:1", "wal.put=torn:2", "wal.put=latency", "wal.put=latency:fast",
		"wal.put=error,prob=0", "wal.put=error,prob=1.5", "wal.put=error,times=-1", "wal.put=error,bogus=1",
		// Stale-site references are a startup error, not a silent no-op.
		"nope.put=error", "wal.stat=error:1",
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Fatalf("ParseSpecs(%q) accepted", bad)
		}
	}
}

func TestSiteCatalog(t *testing.T) {
	sites := Sites()
	if len(sites) == 0 {
		t.Fatal("empty site catalog")
	}
	for i, s := range sites {
		if i > 0 && sites[i-1].Name >= s.Name {
			t.Fatalf("catalog not sorted: %q before %q", sites[i-1].Name, s.Name)
		}
		if !KnownSite(s.Name) {
			t.Fatalf("KnownSite(%q) = false for a listed site", s.Name)
		}
	}
	for _, want := range []string{"wal.put", "wal.get", "wal.compact", "epoch.publish", "live.notify", "sse.write"} {
		if !KnownSite(want) {
			t.Fatalf("site %q missing from catalog", want)
		}
	}
	if KnownSite("no.such.site") {
		t.Fatal(`KnownSite("no.such.site") = true`)
	}
}

func TestHitAndOnTrip(t *testing.T) {
	in := New(7)
	var trips []string
	in.OnTrip(func(site string) { trips = append(trips, site) })

	if err := in.Hit("epoch.publish"); err != nil {
		t.Fatalf("unarmed Hit: %v", err)
	}
	in.Set("epoch.publish", Spec{Mode: ModeError, Times: 2})
	for i := 0; i < 2; i++ {
		if err := in.Hit("epoch.publish"); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed Hit #%d: %v", i, err)
		}
	}
	if err := in.Hit("epoch.publish"); err != nil {
		t.Fatalf("spent Hit: %v", err)
	}
	in.Set("live.notify", Spec{Mode: ModeLatency, Delay: time.Microsecond})
	if err := in.Hit("live.notify"); err != nil {
		t.Fatalf("latency Hit must proceed: %v", err)
	}
	if want := []string{"epoch.publish", "epoch.publish", "live.notify"}; !slices.Equal(trips, want) {
		t.Fatalf("OnTrip saw %v, want %v", trips, want)
	}
	var nilIn *Injector
	if err := nilIn.Hit("wal.put"); err != nil {
		t.Fatalf("nil injector Hit: %v", err)
	}
}

// TestInjectorCallsDuringHits runs each of the injector's methods in a
// goroutine of its own, taking no other lock, while 200 hits trip it,
// so -race sees every side of the injector's lock.
func TestInjectorCallsDuringHits(t *testing.T) {
	in := New(1)
	in.Set("wal.put", Spec{Mode: ModeError})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, call := range []func(){
		func() { in.Trips("wal.put") },
		func() { in.Set("live.notify", Spec{Mode: ModeError}) },
		func() { in.Clear("live.notify") },
		func() { in.OnTrip(func(string) {}) },
		func() { in.ClearAll() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					call()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := in.Hit("wal.put"); err != nil && !errors.Is(err, ErrInjected) {
			t.Errorf("hit %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
