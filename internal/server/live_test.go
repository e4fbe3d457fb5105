package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"movingdb/internal/geom"
	"movingdb/internal/ingest"
	"movingdb/internal/live"
	"movingdb/internal/obs"
)

// liveQueryServer builds the full live stack the way cmd/moserver does:
// one obs registry shared by pipeline, subscription registry and
// server, with the pipeline's publish hook feeding the registry.
func liveQueryServer(t *testing.T, hb time.Duration) (*Server, *ingest.Pipeline, *live.Registry) {
	t.Helper()
	metrics := obs.New(0)
	reg := live.NewRegistry(live.Config{Metrics: metrics})
	p, err := ingest.Open(ingest.Config{
		FlushSize: 1 << 20, MaxAge: time.Hour, MaxQueued: 1 << 30,
		Metrics: metrics, OnPublish: reg.Notify,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close(); p.Close() })
	s, err := New(Config{Ingest: p, Live: reg, Metrics: metrics, SSEHeartbeat: hb})
	if err != nil {
		t.Fatal(err)
	}
	return s, p, reg
}

func ingestAndFlush(t *testing.T, p *ingest.Pipeline, batch []ingest.Observation) {
	t.Helper()
	if _, err := p.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	p.Flush()
}

// TestNearbyHTTP pins the /v1/nearby response shape: nearest-first
// ordering with exact interpolated positions, the strong ETag, and a
// 304 on revalidation within the same epoch.
func TestNearbyHTTP(t *testing.T) {
	s, p, _ := liveQueryServer(t, time.Minute)
	h := s.Handler()
	ingestAndFlush(t, p, []ingest.Observation{
		{ObjectID: "a", T: 0, X: 0, Y: 0}, {ObjectID: "a", T: 10, X: 10, Y: 0},
		{ObjectID: "b", T: 0, X: 100, Y: 0}, {ObjectID: "b", T: 10, X: 100, Y: 0},
		{ObjectID: "c", T: 0, X: 40, Y: 30}, {ObjectID: "c", T: 10, X: 40, Y: 30},
	})
	code, body := get(t, h, "/v1/nearby?x=0&y=0&t=5&k=2")
	if code != 200 || body["count"].(float64) != 2 {
		t.Fatalf("nearby: %d %v", code, body)
	}
	res := body["results"].([]any)
	r0 := res[0].(map[string]any)
	r1 := res[1].(map[string]any)
	// a interpolates to (5, 0) at t=5; c sits at (40, 30), dist 50.
	if r0["id"] != "a" || r0["x"].(float64) != 5 || r0["dist"].(float64) != 5 {
		t.Fatalf("first result: %v", r0)
	}
	if r1["id"] != "c" || math.Abs(r1["dist"].(float64)-50) > 1e-9 {
		t.Fatalf("second result: %v", r1)
	}

	// Radius query: only a falls within 20 of the origin at t=5.
	code, body = get(t, h, "/v1/nearby?x=0&y=0&t=5&radius=20")
	if code != 200 || body["count"].(float64) != 1 {
		t.Fatalf("radius query: %d %v", code, body)
	}

	// Strong ETag + 304 revalidation within the epoch.
	req := httptest.NewRequest("GET", "/v1/nearby?x=0&y=0&t=5&k=2", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	etag := rec.Header().Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("want a strong ETag, got %q", etag)
	}
	req = httptest.NewRequest("GET", "/v1/nearby?x=0&y=0&t=5&k=2", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: %d", rec.Code)
	}

	// A new epoch invalidates: the same query re-answers 200 with fresh
	// positions.
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "b", T: 20, X: 1, Y: 1}})
	req = httptest.NewRequest("GET", "/v1/nearby?x=0&y=0&t=5&k=2", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("post-epoch revalidation: %d", rec.Code)
	}
}

// TestNearbyBadRequests covers the 400 surface: missing bounds, bad
// radius, bad numbers.
func TestNearbyBadRequests(t *testing.T) {
	s, _, _ := liveQueryServer(t, time.Minute)
	h := s.Handler()
	for _, q := range []string{
		"/v1/nearby?x=0&y=0&t=5",            // neither k nor radius
		"/v1/nearby?x=0&y=0&t=5&k=0",        // k=0 alone is not a bound
		"/v1/nearby?x=0&y=0&t=5&radius=-3",  // negative radius
		"/v1/nearby?x=0&y=0&t=5&radius=abc", // unparsable radius
		"/v1/nearby?x=bogus&y=0&t=5&k=3",    // unparsable coordinate
	} {
		code, body := get(t, h, q)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d %v", q, code, body)
		}
		if c, _ := envelope(t, body); c != CodeBadRequest {
			t.Fatalf("%s: error code %s", q, c)
		}
	}
}

// TestSubscribeFlow walks the management surface: create, inspect,
// delete, and the 400/404/503 edges.
func TestSubscribeFlow(t *testing.T) {
	s, _, _ := liveQueryServer(t, time.Minute)
	h := s.Handler()
	code, body := post(t, h, "/v1/subscribe",
		`{"predicate":"inside","object":"bus","region":{"x1":200,"y1":200,"x2":100,"y2":100}}`)
	if code != http.StatusCreated {
		t.Fatalf("subscribe: %d %v", code, body)
	}
	id := body["subscription_id"].(string)
	// The swapped corners normalise, and the canonical form proves it.
	if body["predicate"] != "inside(bus, [100,100..200,200])" {
		t.Fatalf("canonical predicate: %v", body["predicate"])
	}
	if body["events_url"] != "/v1/subscribe/"+id+"/events" {
		t.Fatalf("events url: %v", body["events_url"])
	}
	code, body = get(t, h, "/v1/subscribe/"+id)
	if code != 200 || body["active"] != true || body["seq"].(float64) != 0 {
		t.Fatalf("info: %d %v", code, body)
	}

	req := httptest.NewRequest("DELETE", "/v1/subscribe/"+id, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if code, _ := get(t, h, "/v1/subscribe/"+id); code != http.StatusNotFound {
		t.Fatalf("info after delete: %d", code)
	}

	for _, bad := range []string{
		`{`,
		`{"predicate":"inside","object":"bus"}`, // no region
		`{"predicate":"within","object":"bus","radius":-1}`,                          // bad radius
		`{"predicate":"appears","object":"bus","region":{"x2":1}}`,                   // appears takes no object
		`{"predicate":"sideways","object":"b","region":{"x2":1}}`,                    // unknown kind
		`{"predicate":"inside","object":"b","bogus":1}`,                              // unknown field
		`{"predicate":"appears","region":{"x2":1,"y2":1}} garbage`,                   // trailing data
		`{"predicate":"appears","region":{"x2":1,"y2":1}}{"predicate":"bogus"}`,      // a second value
		`{"predicate":"inside","object":"b","region":{"x1":5,"x2":5,"y1":1,"y2":1}}`, // degenerate point region is fine
	} {
		code, resp := post(t, h, "/v1/subscribe", bad)
		if strings.Contains(bad, `"x1":5`) {
			if code != http.StatusCreated {
				t.Fatalf("point region rejected: %d %v", code, resp)
			}
			continue
		}
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: want 400, got %d %v", bad, code, resp)
		}
	}

	ro := testServer(t)
	if code, _ := post(t, ro.Handler(), "/v1/subscribe", `{"predicate":"appears","region":{"x2":1,"y2":1}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("read-only subscribe: %d", code)
	}
	if code, _ := get(t, ro.Handler(), "/v1/subscribe/s1"); code != http.StatusServiceUnavailable {
		t.Fatalf("read-only info: %d", code)
	}
}

// sseClient reads one subscription's SSE stream off a live TCP server,
// decoding frames into events until the stream ends.
type sseClient struct {
	events []live.Event
	lagged int
	byes   int
}

func readSSE(t *testing.T, url string, stop <-chan struct{}, onOpen func()) sseClient {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return sseClient{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Errorf("stream %s: %d %s", url, resp.StatusCode, resp.Header.Get("Content-Type"))
		return sseClient{}
	}
	if onOpen != nil {
		onOpen()
	}
	if stop != nil {
		go func() { <-stop; resp.Body.Close() }()
	}
	var c sseClient
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "lagged":
				c.lagged++
			case "bye":
				c.byes++
				return c
			case "enter", "leave":
				var e live.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Errorf("bad event payload %q: %v", data, err)
				} else {
					c.events = append(c.events, e)
				}
			}
			event, data = "", ""
		}
	}
	return c
}

// openStream subscribes to bus inside [100,100..200,200] on a live TCP
// server and reads the event stream in the background; the returned
// channel yields what was read once the stream ends.
func openStream(t *testing.T, base string) (subID string, done <-chan sseClient) {
	t.Helper()
	resp, err := http.Post(base+"/v1/subscribe", "application/json",
		strings.NewReader(`{"predicate":"inside","object":"bus","region":{"x1":100,"y1":100,"x2":200,"y2":200}}`))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	opened := make(chan struct{})
	ch := make(chan sseClient, 1)
	go func() { ch <- readSSE(t, base+created["events_url"].(string), nil, func() { close(opened) }) }()
	<-opened
	return created["subscription_id"].(string), ch
}

// closeStream unsubscribes, which ends the stream with a bye and
// unblocks the reader, and returns what the reader saw.
func closeStream(t *testing.T, base, subID string, done <-chan sseClient) sseClient {
	t.Helper()
	time.Sleep(100 * time.Millisecond)
	req, _ := http.NewRequest("DELETE", base+"/v1/subscribe/"+subID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("unsubscribe: %v %v", err, resp)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	select {
	case c := <-done:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after unsubscribe")
	}
	return sseClient{}
}

// TestSSEEndToEnd drives the whole path over real HTTP: subscribe,
// open the stream, move an object through the region, and read the
// edge events back with contiguous sequence numbers.
func TestSSEEndToEnd(t *testing.T) {
	s, p, _ := liveQueryServer(t, 50*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 0, X: 0, Y: 0}})

	subID, done := openStream(t, ts.URL)
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 1, X: 150, Y: 150}}) // enter
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 2, X: 160, Y: 150}}) // no edge
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 3, X: 500, Y: 500}}) // leave
	c := closeStream(t, ts.URL, subID, done)
	if len(c.events) != 2 || c.events[0].Edge != "enter" || c.events[1].Edge != "leave" {
		t.Fatalf("events: %+v", c.events)
	}
	if c.events[0].Seq != 1 || c.events[1].Seq != 2 || c.byes != 1 {
		t.Fatalf("sequencing: %+v byes=%d", c.events, c.byes)
	}
	if c.events[0].X != 150 || c.events[0].Object != "bus" || c.events[0].PubUnixNS == 0 {
		t.Fatalf("event payload: %+v", c.events[0])
	}
}

// TestSSEOutlivesWriteTimeout: an event stream lives past the HTTP
// server's WriteTimeout (moserver's -write-timeout), because the handler
// moves the write deadline before every write. Without that the server
// cut every stream once the timeout passed, with no bye frame.
func TestSSEOutlivesWriteTimeout(t *testing.T) {
	s, p, _ := liveQueryServer(t, time.Minute)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 0, X: 0, Y: 0}})

	subID, done := openStream(t, ts.URL)
	time.Sleep(600 * time.Millisecond)
	ingestAndFlush(t, p, []ingest.Observation{{ObjectID: "bus", T: 1, X: 150, Y: 150}}) // enter
	c := closeStream(t, ts.URL, subID, done)
	if len(c.events) != 1 || c.events[0].Edge != "enter" || c.byes != 1 {
		t.Fatalf("stream past the write timeout: events %+v, byes %d; want one enter and a bye", c.events, c.byes)
	}
}

// TestSSEChurnUnderRace is the concurrency soak for the subsystem: with
// ingestion flushing continuously, many subscribers come and go over
// real HTTP streams (every unsubscribe a 200), concurrent /v1/nearby
// readers always get a 200, one deliberately slow consumer must observe
// drop-oldest with a lagged signal rather than stalling the pipeline,
// and when the storm ends the registry closes every stream and no
// goroutine leaks. Run under -race (tier-1 always does).
func TestSSEChurnUnderRace(t *testing.T) {
	before := runtime.NumGoroutine()
	s, p, reg := liveQueryServer(t, 20*time.Millisecond)
	ts := httptest.NewServer(s.Handler())

	subscribe := func() (string, string) {
		resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json",
			strings.NewReader(`{"predicate":"appears","region":{"x1":0,"y1":0,"x2":500,"y2":500}}`))
		if err != nil {
			t.Errorf("subscribe: %v", err)
			return "", ""
		}
		defer resp.Body.Close()
		var created map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || resp.StatusCode != http.StatusCreated {
			t.Errorf("subscribe: %d %v", resp.StatusCode, err)
			return "", ""
		}
		return created["subscription_id"].(string), ts.URL + created["events_url"].(string)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest storm: objects teleport in and out of the watched region
	// every flush, so every epoch produces edges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]ingest.Observation, 8)
			for o := range batch {
				x := float64((i + o) % 2 * 1000) // alternates 0 and 1000: inside/outside
				batch[o] = ingest.Observation{ObjectID: fmt.Sprintf("g%d", o), T: float64(i), X: x, Y: 100}
			}
			if _, err := p.Ingest(batch); err != nil {
				return // pipeline closed during shutdown
			}
			p.Flush()
			time.Sleep(time.Millisecond)
		}
	}()

	// Churners: subscribe, read briefly, unsubscribe, repeat.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, url := subscribe()
				if id == "" {
					return
				}
				opened := make(chan struct{})
				readerDone := make(chan struct{})
				go func() { readSSE(t, url, nil, func() { close(opened) }); close(readerDone) }()
				<-opened
				time.Sleep(2 * time.Millisecond)
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/subscribe/"+id, nil)
				if resp, err := http.DefaultClient.Do(req); err != nil {
					t.Errorf("unsubscribe %s: %v", id, err)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("unsubscribe %s: status %d", id, resp.StatusCode)
					}
				}
				// Unsubscribe ends the stream with a bye; the reader exits.
				<-readerDone
			}
		}()
	}

	// Nearby readers: a pinned epoch always answers, so every response
	// is a 200 however the subscribers churn and the epochs advance.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/nearby?x=%d&y=100&t=%d&k=3", ts.URL, i%2*1000, i%50)
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(r)
	}

	// The slow consumer: a tiny buffer and no reads while the storm
	// rages. It must be marked lagged with drops — never block ingest.
	slow, err := reg.Subscribe(live.Predicate{Kind: live.KindAppears,
		Region: geom.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}}, p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slow.Info().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if evs, lagged := slow.Take(); !lagged || len(evs) == 0 {
		t.Fatalf("slow consumer: lagged=%v events=%d", lagged, len(evs))
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Shutdown in moserver's order: registry first (ends SSE streams),
	// then the HTTP server, then the pipeline (via cleanup).
	reg.Close()
	select {
	case <-slow.Done():
	default:
		t.Fatal("registry Close did not end the slow stream")
	}
	ts.Close()

	// Goroutine accounting: everything spawned here and inside the
	// subsystem must have exited.
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
