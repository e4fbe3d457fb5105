package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"movingdb/internal/cache"
	"movingdb/internal/fault"
	"movingdb/internal/geom"
	"movingdb/internal/live"
	"movingdb/internal/temporal"
)

// The live query surface: GET /v1/nearby answers range and k-NN
// queries over the pinned epoch's current trajectories, and the
// /v1/subscribe family manages standing queries whose edge-triggered
// enter/leave events stream to clients over SSE, pushed from the
// ingest pipeline's epoch publish hook. Nearby works on any server (a
// read-only one answers over its frozen epoch 0); the subscription
// routes answer 503 unavailable without a registry.

// nearbyReq is a decoded /v1/nearby request. K == 0 means no count
// bound (a pure radius query); Radius < 0 means no distance bound.
// At least one bound is required at decode time.
type nearbyReq struct {
	X, Y   float64
	T      float64
	K      int
	Radius float64
}

func (s *Server) decodeNearby(r *http.Request) (nearbyReq, error) {
	p := parseParams(r.URL.RawQuery)
	req := nearbyReq{
		X:      p.float(pX),
		Y:      p.float(pY),
		T:      p.float(pT),
		K:      p.intMin(pK, 0, 1),
		Radius: -1,
	}
	p.timeout(s.cfg.QueryTimeout, s.cfg.MaxTimeout)
	if raw := p.vals[pRadius]; raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			p.fail(CodeBadRequest, "bad radius "+strconv.Quote(raw)+": want a positive finite number")
		} else {
			req.Radius = v
		}
	}
	if p.err == nil && req.K == 0 && req.Radius < 0 {
		p.fail(CodeBadRequest, "need k= (nearest count) or radius= (range), or both")
	}
	req.K = min(req.K, maxLimit)
	if p.err != nil {
		return nearbyReq{}, p.err
	}
	return req, nil
}

func (q nearbyReq) key(epoch uint64) cache.Key {
	return cache.Key{Route: "/v1/nearby", Epoch: epoch, Args: [8]uint64{
		math.Float64bits(q.X), math.Float64bits(q.Y), math.Float64bits(q.T),
		uint64(q.K), math.Float64bits(q.Radius),
	}}
}

// handleNearby answers ?x=&y=&t=&k=&radius= with the objects nearest
// the point at the instant, best-first over the epoch's pinned index
// snapshot — the getNearbyObjects operation of a moving objects
// database. Results carry each object's exact position at t and its
// distance, nearest first; responses are cached under (request,
// epoch) and carry the strong ETag.
func (s *Server) handleNearby(w http.ResponseWriter, r *http.Request) {
	req, derr := s.decodeNearby(r)
	if derr != nil {
		writeDecodeError(w, derr)
		return
	}
	ep := s.pinEpoch()
	s.serveCached(w, r, req.key(ep.Seq()), func(scratch []byte) ([]byte, error) {
		return appendNearbyBody(scratch, req, ep.Nearest(req.X, req.Y, temporal.Instant(req.T), req.K, req.Radius))
	})
}

// subscribeBody is the POST /v1/subscribe payload. Region rectangles
// normalise (min/max per axis) like /v1/window's corners do.
type subscribeBody struct {
	Predicate string      `json:"predicate"`
	Object    string      `json:"object"`
	Region    *regionBody `json:"region"`
	X         float64     `json:"x"`
	Y         float64     `json:"y"`
	Radius    float64     `json:"radius"`
}

type regionBody struct {
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
	X2 float64 `json:"x2"`
	Y2 float64 `json:"y2"`
}

func (b subscribeBody) predicate() (live.Predicate, error) {
	p := live.Predicate{
		Kind:   live.Kind(b.Predicate),
		Object: b.Object,
		X:      b.X,
		Y:      b.Y,
		Radius: b.Radius,
	}
	switch p.Kind {
	case live.KindInside, live.KindAppears:
		if b.Region == nil {
			return p, fmt.Errorf("%s predicate needs a region", b.Predicate)
		}
		p.Region = geom.Rect{
			MinX: min(b.Region.X1, b.Region.X2), MinY: min(b.Region.Y1, b.Region.Y2),
			MaxX: max(b.Region.X1, b.Region.X2), MaxY: max(b.Region.Y1, b.Region.Y2),
		}
	}
	return p, p.Validate()
}

// requireLive gates the subscription routes on a configured registry.
func (s *Server) requireLive(w http.ResponseWriter) bool {
	if s.live == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"standing queries need a live registry; restart the server with ingestion enabled")
		return false
	}
	return true
}

// handleSubscribe registers a standing query. The response names the
// subscription and its event stream; edge-trigger state seeds from the
// current epoch, so only changes after this call produce events.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	var body subscribeBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad subscribe body: %v", err))
		return
	}
	// Decode stops after the first value; only whitespace may follow it.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad subscribe body: unexpected data after the object")
		return
	}
	pred, err := body.predicate()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	sub, err := s.live.Subscribe(pred, s.pinEpoch())
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"subscription_id": sub.ID(),
		"predicate":       sub.Predicate().String(),
		"events_url":      "/v1/subscribe/" + sub.ID() + "/events",
	})
}

// handleSubscription reports one subscription's delivery state.
func (s *Server) handleSubscription(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	sub, ok := s.live.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such subscription")
		return
	}
	writeJSON(w, http.StatusOK, sub.Info())
}

// handleUnsubscribe removes a standing query and ends its stream.
func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	id := r.PathValue("id")
	if !s.live.Unsubscribe(id) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such subscription")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unsubscribed": id})
}

// writeEventFrames renders one batch of subscription events as SSE
// frames: an explicit "lagged" frame when the bounded buffer dropped
// anything since the last Take, then one frame per event with the
// per-subscription sequence as the SSE id and the edge as the event
// name. The whole batch renders into scratch (returned grown for
// reuse) and goes out in a single Write — every connected stream pays
// this cost on every epoch publish, so the frame bytes are appended by
// hand instead of through fmt and reflection-driven json.Marshal.
func writeEventFrames(w io.Writer, scratch []byte, events []live.Event, lagged bool) []byte {
	buf := scratch[:0]
	if lagged {
		buf = append(buf, "event: lagged\ndata: {\"lagged\":true}\n\n"...)
	}
	for _, e := range events {
		// The data line is the live.Event as json.Marshal renders it.
		j := jsonBody{b: buf}
		j.raw("id: ").uint(e.Seq).raw("\nevent: ").raw(e.Edge).raw("\ndata: ")
		j.raw(`{"seq":`).uint(e.Seq).raw(`,"epoch":`).uint(e.Epoch).raw(`,"edge":`).str(e.Edge).raw(`,"object":`).str(e.Object)
		j.raw(`,"t":`).float(e.T).raw(`,"x":`).float(e.X).raw(`,"y":`).float(e.Y).raw(`,"pub_unix_ns":`).int(e.PubUnixNS).raw("}\n\n")
		if j.err == nil {
			// An unrenderable event (non-finite coordinate) is dropped,
			// exactly as the json.Marshal error path used to do.
			buf = j.b
		}
	}
	if len(buf) > 0 {
		// Write failures surface as the closed connection on the next
		// frame, same as the fmt.Fprintf path before.
		w.Write(buf)
	}
	return buf
}

func isNonFinite(f float64) bool {
	return math.IsNaN(f) || math.IsInf(f, 0)
}

// jsonSafeString reports whether s renders as itself inside JSON
// quotes under encoding/json's rules: printable ASCII, nothing needing
// an escape, and none of the HTML-sensitive bytes it always escapes.
func jsonSafeString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONString appends s as a JSON string. Event edges and object
// ids are plain ASCII in practice, so the fast path is a quoted copy;
// anything needing escapes takes the stdlib slow path to stay
// byte-identical with json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	if jsonSafeString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	// The escaping fallback is off the common path (non-ASCII or
	// HTML-sensitive object ids); matching json.Marshal byte for byte
	// beats the allocation.
	q, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail; keep the frame valid anyway.
		return append(b, `""`...)
	}
	return append(b, q...)
}

// handleEvents streams a subscription's events as Server-Sent Events:
// one "enter"/"leave" event per predicate flip (data is the Event
// JSON, id the per-subscription sequence), an explicit "lagged" event
// whenever the bounded buffer dropped anything since the last frame,
// heartbeat comments to keep intermediaries from idling the
// connection out, and a final "bye" on unsubscribe or shutdown. The
// handler returns when the client disconnects or the subscription
// ends — registry Close (SIGTERM drain) unblocks every stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	sub, ok := s.live.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such subscription")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "response writer cannot stream")
		return
	}
	// A stream outlives the HTTP server's WriteTimeout: every write gets
	// a fresh deadline of two heartbeats, so a client that keeps reading
	// stays connected and a stalled one is still cut. A writer without
	// deadlines (a test recorder) has none to move.
	rc := http.NewResponseController(w)
	extend := func() { _ = rc.SetWriteDeadline(time.Now().Add(2 * s.cfg.SSEHeartbeat)) }
	extend()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream %s\n\n", sub.ID())
	fl.Flush()
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	var frameBuf []byte // reused across batches; grows to the largest frame batch
	for {
		events, lagged := sub.Take()
		if lagged || len(events) > 0 {
			if err := fault.Hit("sse.write"); err != nil {
				// Injected broken pipe: abort the handler mid-stream without
				// a bye frame, exactly as if the peer vanished. The events
				// just taken are gone for this connection — a reconnecting
				// client sees a gap, never a reorder — and the subscription
				// itself stays live for the next GET.
				return
			}
			extend()
		}
		frameBuf = writeEventFrames(w, frameBuf, events, lagged)
		if lagged || len(events) > 0 {
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			extend()
			fmt.Fprint(w, "event: bye\ndata: {}\n\n")
			fl.Flush()
			return
		case <-sub.Wait():
		case <-hb.C:
			extend()
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		}
	}
}
