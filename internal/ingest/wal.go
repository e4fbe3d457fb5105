package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"movingdb/internal/obs"
	"movingdb/internal/storage"
)

// The write-ahead log stores one record per acknowledged batch — plus
// periodic checkpoint records — as large objects in the page store, so
// each record starts on a page boundary and recovery is a linear page
// scan. Record layout (little-endian):
//
//	magic   uint32  walMagic
//	kind    uint32  1 = batch, 2 = checkpoint
//	seq     uint64  batch: 1-based, strictly consecutive
//	                checkpoint: the seq its state covers
//	payload uint32  payload length in bytes
//	crc     uint32  CRC-32 (IEEE) of header bytes [4, 20) + payload,
//	                so a flipped kind/seq/length is caught too
//	payload: batch — count uint32, then per observation
//	         idLen uint32, id bytes, t/x/y float64;
//	         checkpoint — the appender state, storage.EncodeHistory
//
// Recovery classifies damage by where and what it is:
//
//   - A record whose header does not parse, or whose pages extend past
//     the end of the medium, is a torn tail from an interrupted write:
//     it and everything after it is truncated (the normal crash
//     artifact, not corruption).
//   - A checkpoint record that is fully present but fails its CRC,
//     its sequence rule, or state validation is quarantined (its pages
//     are counted and skipped over): the records around it
//     still chain on seq, so the previous checkpoint plus the suffix
//     replay reconstruct the same state. Recovery never fails open.
//   - A batch record that is fully present but corrupt ends trust in
//     the suffix: it is quarantined and the log is truncated there, so
//     the recovered state is the longest clean prefix of acked batches.
//
// Periodically (every CheckpointPages pages of appends) the pipeline
// writes a checkpoint carrying the full appender state and compacts
// the log down to [previous checkpoint][suffix], keeping replay
// bounded by roughly two checkpoint intervals while always retaining
// one older checkpoint as the corruption fallback.
const (
	walMagic      = 0x4D4F574C // "MOWL"
	walHeaderSize = 24

	walKindBatch      = 1
	walKindCheckpoint = 2
)

// wal has no lock of its own: the pipeline reaches it only under
// Pipeline.mu.
type wal struct {
	io        PageIO
	seq       uint64
	pages     int // committed log length in pages
	ckptEvery int // batch pages between checkpoints; <= 0 disables
	sinceCkpt int // batch pages appended since the last checkpoint
	ckptPage  int // first page of the newest valid checkpoint, -1 none

	checkpoints      int64
	quarantinedPages int

	metrics *obs.Metrics // synchronises itself, never nil
}

// walRecovery is what openWAL salvaged: the newest valid checkpoint
// state as the scan decoded it (nil if none), the batch records after
// it, and whether the scan quarantined anything — a dirty log should be
// re-checkpointed so the damaged region stops being re-read on open.
type walRecovery struct {
	state   *storage.History
	batches [][]Observation
	dirty   bool
}

// openWAL scans pio from page 0 and salvages everything the damage
// taxonomy above allows. The medium is truncated after the last record
// it still trusts. openWAL never fails open: any byte prefix of a log
// image recovers to a clean prefix of the acked history.
func openWAL(pio PageIO, metrics *obs.Metrics) (*wal, walRecovery, error) {
	w := &wal{io: pio, ckptPage: -1, metrics: metrics}
	var rec walRecovery
	p, committed, ckptEnd := 0, 0, 0
	for p < pio.NumPages() {
		hdr, err := pio.Get(storage.LOBRef{FirstPage: p, Length: walHeaderSize})
		if err != nil || len(hdr) < walHeaderSize ||
			binary.LittleEndian.Uint32(hdr[0:]) != walMagic {
			break // torn tail (or pre-WAL bytes): discard
		}
		kind := binary.LittleEndian.Uint32(hdr[4:])
		seq := binary.LittleEndian.Uint64(hdr[8:])
		payloadLen := int(binary.LittleEndian.Uint32(hdr[16:]))
		sum := binary.LittleEndian.Uint32(hdr[20:])
		if kind != walKindBatch && kind != walKindCheckpoint {
			break // not a record header: torn tail
		}
		n := pagesFor(walHeaderSize + payloadLen)
		if p+n > pio.NumPages() {
			break // record extends past the medium: torn write
		}
		body, err := pio.Get(storage.LOBRef{FirstPage: p, Length: walHeaderSize + payloadLen})
		bad := err != nil
		var payload []byte
		if !bad {
			payload = body[walHeaderSize:]
			bad = recordCRC(body[4:20], payload) != sum
		}
		if !bad {
			switch kind {
			case walKindBatch:
				var batch []Observation
				batch, err = decodeBatch(payload)
				if bad = err != nil || seq != w.seq+1; !bad {
					rec.batches = append(rec.batches, batch)
					w.seq = seq
				}
			case walKindCheckpoint:
				// After compaction the log starts at a checkpoint whose
				// seq is absolute, so the rule is seq >= current, not
				// equality; the state then covers everything seen.
				var h storage.History
				h, err = storage.DecodeHistory(payload)
				if bad = seq < w.seq || err != nil; !bad {
					rec.state = &h
					rec.batches = rec.batches[:0]
					w.seq = seq
					w.ckptPage = p
					ckptEnd = p + n
				}
			}
		}
		if bad {
			rec.dirty = true
			if kind == walKindCheckpoint {
				w.quarantine(n, "checkpoint")
				p += n
				continue
			}
			w.quarantine(pio.NumPages()-p, "record")
			break
		}
		p += n
		committed = p
	}
	pio.Truncate(committed)
	w.pages = committed
	w.sinceCkpt = committed - ckptEnd
	return w, rec, nil
}

// quarantine counts the n pages of a corrupt record, per cause.
func (w *wal) quarantine(n int, cause string) {
	w.quarantinedPages += n
	w.metrics.Ingest.WALQuarantined.Add(int64(n))
	w.metrics.RecordIngestCause("wal_quarantine_"+cause, 1)
}

func pagesFor(n int) int { return (n + storage.PageSize - 1) / storage.PageSize }

// recordCRC covers the header fields after the magic plus the payload,
// so corruption of kind, seq or length is detected, not just payload
// rot.
func recordCRC(hdrPart, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdrPart), crc32.IEEETable, payload)
}

func encodeRecord(kind uint32, seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], walMagic)
	binary.LittleEndian.PutUint32(rec[4:], kind)
	binary.LittleEndian.PutUint64(rec[8:], seq)
	binary.LittleEndian.PutUint32(rec[16:], uint32(len(payload)))
	copy(rec[walHeaderSize:], payload)
	binary.LittleEndian.PutUint32(rec[20:], recordCRC(rec[4:20], rec[walHeaderSize:]))
	return rec
}

// append logs one batch and returns its sequence number. The caller
// (Pipeline.admit) serialises appends with admission to the pending run,
// so WAL order equals apply order. A failed Put may have left torn pages behind;
// they are truncated away so the committed prefix stays scannable and
// the next append lands exactly where recovery will look for it.
func (w *wal) append(batch []Observation) (uint64, error) {
	rec := encodeRecord(walKindBatch, w.seq+1, encodeBatch(batch))
	ref, err := w.io.Put(rec)
	if err != nil {
		w.io.Truncate(w.pages)
		return 0, err
	}
	w.seq++
	w.pages += ref.NumPages()
	w.sinceCkpt += ref.NumPages()
	w.metrics.Ingest.WALRecords.Inc()
	w.metrics.Ingest.WALPages.Add(int64(ref.NumPages()))
	return w.seq, nil
}

// checkpointDue reports whether enough batch pages have accumulated
// since the last checkpoint.
func (w *wal) checkpointDue() bool {
	return w.ckptEvery > 0 && w.sinceCkpt >= w.ckptEvery
}

// checkpoint writes a checkpoint record carrying state — the appender
// snapshot at exactly the current seq; the caller guarantees every
// logged batch is applied and no append can interleave — then compacts
// the log to [previous checkpoint][suffix]. The previous checkpoint is
// retained deliberately: it is the fallback when the newer record
// rots. With dropPrevious the compaction goes all the way to the new
// record instead — the dirty-recovery path uses it, because there the
// region before the new checkpoint is exactly where quarantined damage
// lives. A refused compact (injectable) just leaves a longer, still
// valid log for the next round to shrink.
func (w *wal) checkpoint(state []byte, dropPrevious bool) error {
	rec := encodeRecord(walKindCheckpoint, w.seq, state)
	ref, err := w.io.Put(rec)
	if err != nil {
		w.io.Truncate(w.pages)
		return err
	}
	ckpt := ref.FirstPage
	w.pages += ref.NumPages()
	w.metrics.Ingest.WALCheckpoints.Inc()
	w.metrics.Ingest.WALCheckpointPages.Add(int64(ref.NumPages()))
	keep := w.ckptPage
	if dropPrevious {
		keep = ckpt
	}
	if keep > 0 {
		if cerr := w.io.Compact(keep); cerr == nil {
			ckpt -= keep
			w.pages -= keep
		}
	}
	w.ckptPage = ckpt
	w.sinceCkpt = 0
	w.checkpoints++
	return nil
}

func encodeBatch(batch []Observation) []byte {
	n := 4
	for _, o := range batch {
		n += 4 + len(o.ObjectID) + 24
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batch)))
	for _, o := range batch {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.ObjectID)))
		buf = append(buf, o.ObjectID...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.T))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Y))
	}
	return buf
}

// minObservationSize is the smallest wire footprint of one observation
// (empty id): the idLen word plus three float64s. Decoders use it to
// bound counts against the payload actually present, so a corrupt
// count cannot drive allocation.
const minObservationSize = 4 + 24

func decodeBatch(payload []byte) ([]Observation, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: short batch payload", storage.ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(payload))
	if count < 0 || count > (len(payload)-4)/minObservationSize {
		return nil, fmt.Errorf("%w: batch count %d exceeds payload", storage.ErrCorrupt, count)
	}
	off := 4
	batch := make([]Observation, 0, count)
	for i := 0; i < count; i++ {
		if len(payload)-off < 4 {
			return nil, fmt.Errorf("%w: truncated observation %d", storage.ErrCorrupt, i)
		}
		idLen := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if idLen < 0 || len(payload)-off < idLen+24 {
			return nil, fmt.Errorf("%w: truncated observation %d", storage.ErrCorrupt, i)
		}
		id := string(payload[off : off+idLen])
		off += idLen
		t := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		x := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:]))
		off += 24
		batch = append(batch, Observation{ObjectID: id, T: t, X: x, Y: y})
	}
	return batch, nil
}
