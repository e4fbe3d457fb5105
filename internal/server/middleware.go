package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter captures the status code a handler writes so the
// instrumentation can count it.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (the
// SSE event routes) can push frames through the instrumentation
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection, so the
// event streams can move their write deadline.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the observability middleware: request
// body limiting, panic recovery (500 envelope instead of a dropped
// connection), and per-route counting with latency into the registry.
func (s *Server) instrument(route string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		defer func() {
			if p := recover(); p != nil {
				s.logger.Printf("server: panic on %s: %v\n%s", route, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, CodeInternal,
						fmt.Sprintf("internal error serving %s", route))
				} else {
					sw.status = http.StatusInternalServerError
				}
			}
			s.metrics.RecordRequest(route, sw.status, time.Since(start))
		}()
		next(sw, r)
	})
}
