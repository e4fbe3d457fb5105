package server

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"

	"movingdb/internal/ingest"
)

// maxIngestBatch bounds the observations in one POST /v1/ingest body.
const maxIngestBatch = 10000

// handleIngest accepts a JSON array of observations
// [{"id": "...", "t": .., "x": .., "y": ..}, ...] and enqueues it on
// the live pipeline. 202 means the batch is in the write-ahead log and
// will be applied — it survives a crash from the ack on; it is not
// necessarily queryable yet unless ?sync=1 forces a flush before the
// response (read-your-writes). A full queue is 429 with the
// backpressure code and nothing logged; a batch larger than the whole
// queue is a 400, since no retry could admit it.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"this server has no live ingestion pipeline; restart it with ingestion enabled")
		return
	}
	bp := scratch.Get().(*[]byte)
	body := bytes.NewBuffer((*bp)[:0])
	_, err := body.ReadFrom(r.Body)
	var batch []ingest.Observation
	if err == nil {
		batch, err = decodeObservations(body.Bytes(), maxIngestBatch)
	}
	*bp = body.Bytes()
	scratch.Put(bp)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad ingest body: "+err.Error())
		return
	}
	if len(batch) > maxIngestBatch {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"batch has "+strconv.Itoa(len(batch))+" observations; the limit is "+strconv.Itoa(maxIngestBatch))
		return
	}
	seq, err := s.ingest.Ingest(batch)
	switch {
	case errors.Is(err, ingest.ErrBackpressure):
		writeRetryError(w, http.StatusTooManyRequests, CodeBackpressure, err.Error(),
			s.ingest.RetryAfterHint(err))
		return
	case errors.Is(err, ingest.ErrInvalidObservation):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	case errors.Is(err, ingest.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		return
	case errors.Is(err, ingest.ErrDegraded):
		writeRetryError(w, http.StatusServiceUnavailable, CodeDegraded, err.Error(),
			s.ingest.RetryAfterHint(err))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	p := parseParams(r.URL.RawQuery)
	synced := p.vals[pSync] == "1"
	if synced {
		s.ingest.Flush()
	}
	var ack [64]byte
	w.Header()["Content-Type"] = hdrJSON
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(appendIngestAck(ack[:0], len(batch), seq, synced))
}
