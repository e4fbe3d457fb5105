package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"movingdb/internal/db"
)

// Error codes of the v1 JSON error envelope. Every non-2xx response has
// the shape {"error": {"code": <code>, "message": <text>}}.
const (
	CodeBadRequest   = "bad_request"
	CodeQueryTooLong = "query_too_long"
	CodeNotFound     = "not_found"
	CodeTimeout      = "timeout"
	CodeInternal     = "internal"
	// CodeBackpressure signals a full ingest queue (HTTP 429); the client
	// should retry with backoff.
	CodeBackpressure = "backpressure"
	// CodeUnavailable signals a feature not enabled on this server, such
	// as POSTing to /v1/ingest when no live pipeline is configured.
	CodeUnavailable = "unavailable"
	// CodeDegraded signals that the WAL medium is failing past the retry
	// budget (HTTP 503): the batch was not acknowledged and is not
	// durable. Reads keep working; clients should retry writes with
	// backoff — the server probes the store and recovers automatically
	// once the fault clears.
	CodeDegraded = "degraded"
)

// apiError is the envelope payload.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON answers status with v rendered by encoding/json, for the
// routes no hand-written body serves.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the v1 error envelope with the given status.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: msg}})
}

// writeRetryError is writeError plus a Retry-After header (RFC 9110
// §10.2.3, delay-seconds form) — used by the 429 backpressure and 503
// degraded envelopes, whose rejections clear on a known cadence (the
// flush interval and the degraded probe interval respectively). The
// delay rounds up to whole seconds with a floor of one, since a
// fractional cadence still means "not right now".
func writeRetryError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, status, code, msg)
}

// evalStatus maps an evaluation error onto the envelope: context expiry
// (server deadline or client disconnect) is 408, the query language's
// own error classes are 400, anything else is a 500.
func evalStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, CodeTimeout
	case errors.Is(err, db.ErrSyntax), errors.Is(err, db.ErrType),
		errors.Is(err, db.ErrNoFunction), errors.Is(err, db.ErrSchema):
		return http.StatusBadRequest, CodeBadRequest
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// writeEvalError writes the envelope evalStatus chose for err.
func writeEvalError(w http.ResponseWriter, err error) {
	status, code := evalStatus(err)
	writeError(w, status, code, err.Error())
}
