package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"movingdb/internal/fault"
	"movingdb/internal/ingest"
	"movingdb/internal/storage"
)

// TestDegradedMode503AndRecovery is the graceful-degradation acceptance
// scenario at the API level: with a persistent injected store fault,
// POST /v1/ingest answers 503 with the typed "degraded" envelope code,
// /v1/atinstant and /v1/window keep returning the exact pre-fault
// results, /v1/healthz reports degraded with the cause — and once the
// fault clears, the probe recovers the pipeline automatically and
// writes flow again.
func TestDegradedMode503AndRecovery(t *testing.T) {
	in := fault.New(7)
	ps := storage.NewPageStore()
	s, p := liveServer(t, ingest.Config{
		LogIO:             fault.NewStore(in, "wal", ps),
		FlushSize:         1 << 20,
		MaxAge:            time.Hour,
		RetryAttempts:     2,
		RetryBase:         time.Millisecond,
		RetryMaxWait:      2 * time.Millisecond,
		DegradedThreshold: 1,
		ProbeInterval:     time.Millisecond,
		CheckpointPages:   -1,
	})
	h := s.Handler()

	// Healthy traffic first: the state reads must keep serving.
	code, body := post(t, h, "/v1/ingest?sync=1",
		`[{"id":"car1","t":0,"x":10,"y":10},{"id":"car1","t":10,"x":20,"y":10}]`)
	if code != http.StatusAccepted {
		t.Fatalf("healthy POST: %d %v", code, body)
	}
	_, preAt := get(t, h, "/v1/atinstant?t=5")
	_, preWin := get(t, h, "/v1/window?x1=9&y1=9&x2=21&y2=11&t1=0&t2=10")

	in.Set("wal.put", fault.Spec{Mode: fault.ModeError}) // persistent fault
	for i := 0; i < 3; i++ {
		code, body = post(t, h, "/v1/ingest", fmt.Sprintf(`[{"id":"car2","t":%d,"x":0,"y":0}]`, i))
		if code != http.StatusServiceUnavailable {
			t.Fatalf("faulted POST %d: want 503, got %d %v", i, code, body)
		}
		if c, _ := envelope(t, body); c != CodeDegraded {
			t.Fatalf("faulted POST %d: error code %s, want %s", i, c, CodeDegraded)
		}
	}
	// Reads keep answering with the pre-fault state, bit for bit.
	if code, at := get(t, h, "/v1/atinstant?t=5"); code != 200 || fmt.Sprint(at["positions"]) != fmt.Sprint(preAt["positions"]) {
		t.Fatalf("atinstant under degradation: %d %v, want %v", code, at["positions"], preAt["positions"])
	}
	if code, win := get(t, h, "/v1/window?x1=9&y1=9&x2=21&y2=11&t1=0&t2=10"); code != 200 || fmt.Sprint(win["ids"]) != fmt.Sprint(preWin["ids"]) {
		t.Fatalf("window under degradation: %d %v, want %v", code, win["ids"], preWin["ids"])
	}
	code, hz := get(t, h, "/v1/healthz")
	if code != 200 || hz["status"] != "degraded" {
		t.Fatalf("healthz under degradation: %d %v", code, hz)
	}
	if cause, _ := hz["cause"].(string); cause == "" {
		t.Fatalf("degraded healthz carries no cause: %v", hz)
	}
	if health, ok := hz["health"].(map[string]any); !ok || health["degraded"] != true {
		t.Fatalf("healthz health block: %v", hz["health"])
	}

	// The fault clears; the next probe write recovers the pipeline.
	in.Clear("wal.put")
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body = post(t, h, "/v1/ingest", `[{"id":"car2","t":100,"x":1,"y":1}]`)
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not recover after the fault cleared: %d %v", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, hz := get(t, h, "/v1/healthz"); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz after recovery: %d %v", code, hz)
	}
	if ph := p.Health(); ph.Degraded {
		t.Fatalf("pipeline still degraded after recovery: %+v", ph)
	}
}

// TestGracefulRestartDrain is the SIGTERM-path contract at the HTTP
// level: batches acked 202 but still pending (no sync, no age drain)
// are drained into the store by Close — the shutdown path's explicit
// drain — and a server restarted from the medium's durable image
// serves them identically.
func TestGracefulRestartDrain(t *testing.T) {
	log := storage.NewPageStore()
	s, p := liveServer(t, ingest.Config{Log: log, FlushSize: 1 << 20, MaxAge: time.Hour})
	h := s.Handler()
	for i := 0; i < 4; i++ {
		code, body := post(t, h, "/v1/ingest",
			fmt.Sprintf(`[{"id":"g1","t":%d,"x":%d,"y":0}]`, i*10, i*10))
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, body)
		}
	}
	if st := p.Stats(); st.Applied != 0 || st.QueueDepth == 0 {
		t.Fatalf("test premise broken: applied=%d queued=%d", st.Applied, st.QueueDepth)
	}
	// Graceful shutdown: the HTTP server has stopped accepting (not
	// modelled here); Close drains every pending observation.
	p.Close()
	if st := p.Stats(); st.Applied != 4 || st.QueueDepth != 0 {
		t.Fatalf("drain incomplete: applied=%d queued=%d", st.Applied, st.QueueDepth)
	}
	// The drained state is immediately queryable on the old process…
	if code, body := get(t, h, "/v1/atinstant?t=15"); code != 200 {
		t.Fatalf("read after drain: %d %v", code, body)
	} else if pos := body["positions"].([]any); len(pos) != 1 || pos[0].(map[string]any)["x"].(float64) != 15 {
		t.Fatalf("drained state: %v", pos)
	}
	// …and identical on a restart from the durable image.
	var disk bytes.Buffer
	if _, err := log.WriteTo(&disk); err != nil {
		t.Fatal(err)
	}
	recovered, err := storage.ReadPageStore(bytes.NewReader(disk.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := liveServer(t, ingest.Config{Log: recovered})
	if code, body := get(t, s2.Handler(), "/v1/atinstant?t=15"); code != 200 {
		t.Fatalf("read after restart: %d %v", code, body)
	} else if pos := body["positions"].([]any); len(pos) != 1 || pos[0].(map[string]any)["x"].(float64) != 15 {
		t.Fatalf("restarted state: %v", pos)
	}
}
