package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"

	"movingdb/internal/ingest"
)

// The hand-written wire path of the hot routes: the observation array
// POST /v1/ingest receives is scanned straight into []Observation, and
// the bodies of /v1/window, /v1/atinstant, /v1/nearby, /v1/objects and
// the ingest acknowledgement are appended byte by byte. encoding/json
// stays the specification of both directions — the scanner hands
// anything it is not sure about to json.Decoder, and the encoders are
// held byte-identical to json.Marshal of the map shapes they replaced
// (TestEncodersMatchJSONMarshal, FuzzIngestDecode).

var errTrailingData = errors.New("unexpected data after the observation array")

// decodeObservations decodes an ingest body. The scanner takes the
// bodies clients actually send; whatever it declines goes to
// encoding/json, which defines what is accepted, how a duplicate or
// mixed-case key resolves, and the text of every error. Nothing but
// whitespace may follow the array on either path. The result shares no
// memory with body.
func decodeObservations(body []byte, sizeHint int) ([]ingest.Observation, error) {
	if batch, ok := scanObservations(body, sizeHint); ok {
		return batch, nil
	}
	var batch []ingest.Observation
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return nil, err
	}
	if skipSpace(body, int(dec.InputOffset())) != len(body) {
		return nil, errTrailingData
	}
	return batch, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanObservations is a strict single-pass scanner for
// [{"id":"…","t":…,"x":…,"y":…},…]: the four keys exactly as spelled,
// in any order, each at most once; ids of ASCII without escapes;
// numbers in JSON's grammar, converted by strconv.ParseFloat as
// encoding/json converts them. ok is false — and the caller falls back
// — on anything else, including input encoding/json would also reject.
// sizeHint caps the capacity reserved up front.
func scanObservations(b []byte, sizeHint int) (out []ingest.Observation, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	out = make([]ingest.Observation, 0, min(bytes.Count(b, []byte{'{'}), sizeHint))
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, skipSpace(b, i+1) == len(b)
	}
	for {
		var o ingest.Observation
		if o, i = scanObservation(b, i); i < 0 {
			return nil, false
		}
		out = append(out, o)
		if i = skipSpace(b, i); i == len(b) {
			return nil, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return out, skipSpace(b, i+1) == len(b)
		default:
			return nil, false
		}
	}
}

// scanObservation scans one object starting at b[i] and returns the
// index after its closing brace, or -1 to decline.
func scanObservation(b []byte, i int) (o ingest.Observation, next int) {
	if i == len(b) || b[i] != '{' {
		return o, -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return o, i + 1
	}
	const keys, id = "txyi", 3 // a key is "t", "x", "y" or "id"
	var nums [id]float64
	seen := 0
	for {
		// The shortest legal remainder is `"t":0}`, so the bytes read
		// before the next length check are in bounds.
		if i+5 >= len(b) || b[i] != '"' {
			return o, -1
		}
		field := strings.IndexByte(keys, b[i+1])
		i += 2
		if field == id {
			if b[i] != 'd' {
				return o, -1
			}
			i++
		}
		if field < 0 || b[i] != '"' || seen&(1<<field) != 0 {
			return o, -1
		}
		seen |= 1 << field
		if i = skipSpace(b, i+1); i == len(b) || b[i] != ':' {
			return o, -1
		}
		i = skipSpace(b, i+1)
		start := i
		if field == id {
			if i == len(b) || b[i] != '"' {
				return o, -1
			}
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] < 0x20 || b[i] >= 0x80 || b[i] == '\\' {
					return o, -1
				}
			}
			if i == len(b) {
				return o, -1
			}
			o.ObjectID = string(b[start+1 : i])
			i++
		} else {
			if i = scanNumber(b, i); i < 0 {
				return o, -1
			}
			var err error
			if nums[field], err = strconv.ParseFloat(string(b[start:i]), 64); err != nil {
				return o, -1
			}
		}
		if i = skipSpace(b, i); i == len(b) {
			return o, -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			o.T, o.X, o.Y = nums[0], nums[1], nums[2]
			return o, i + 1
		default:
			return o, -1
		}
	}
}

// scanNumber returns the index after the JSON number starting at b[i]
// (-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?), or -1.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = skipDigits(b, i)
	}
	return i
}

// skipDigits returns the index after the run of digits at b[i], or -1
// when there is none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// jsonBody builds one response body; its methods chain so that a
// record reads like the JSON it writes. A non-finite float poisons the
// body with the error json.Marshal would have returned, so the route
// answers the same 500.
type jsonBody struct {
	b   []byte
	err error
}

func (j *jsonBody) raw(s string) *jsonBody  { j.b = append(j.b, s...); return j }
func (j *jsonBody) str(s string) *jsonBody  { j.b = appendJSONString(j.b, s); return j }
func (j *jsonBody) int(n int64) *jsonBody   { j.b = strconv.AppendInt(j.b, n, 10); return j }
func (j *jsonBody) uint(n uint64) *jsonBody { j.b = strconv.AppendUint(j.b, n, 10); return j }

func (j *jsonBody) float(f float64) *jsonBody {
	if isNonFinite(f) && j.err == nil {
		j.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	j.b = appendJSONFloat(j.b, f)
	return j
}

// open starts an array value; it reports false, having written null,
// for a nil slice — json.Marshal's spelling of one.
func (j *jsonBody) open(isNil bool) bool {
	if isNil {
		j.raw("null")
		return false
	}
	j.raw("[")
	return true
}

// sep writes the separator before element i of an array.
func (j *jsonBody) sep(i int) *jsonBody {
	if i > 0 {
		j.raw(",")
	}
	return j
}

// The bodies. Members appear in sorted key order, as json.Marshal
// writes a map; each ends in the newline the encoder path appended.

func appendAtInstantBody(b []byte, t float64, ps []ingest.Position) ([]byte, error) {
	j := jsonBody{b: b}
	j.raw(`{"positions":`)
	if j.open(ps == nil) {
		for i := range ps {
			j.sep(i).raw(`{"id":`).str(ps[i].ID).raw(`,"x":`).float(ps[i].X).raw(`,"y":`).float(ps[i].Y).raw("}")
		}
		j.raw("]")
	}
	j.raw(`,"t":`).float(t).raw("}\n")
	return j.b, j.err
}

func appendWindowBody(b []byte, total int, pg pageReq, ids []string) ([]byte, error) {
	j := jsonBody{b: b}
	j.raw(`{"ids":`)
	if j.open(ids == nil) {
		for i, id := range ids {
			j.sep(i).str(id)
		}
		j.raw("]")
	}
	j.raw(`,"limit":`).int(int64(pg.Limit)).raw(`,"offset":`).int(int64(pg.Offset)).raw(`,"total":`).int(int64(total)).raw("}\n")
	return j.b, j.err
}

func appendObjectsBody(b []byte, total int, pg pageReq, sums []ingest.ObjectSummary) ([]byte, error) {
	j := jsonBody{b: b}
	j.raw(`{"limit":`).int(int64(pg.Limit)).raw(`,"objects":`)
	if j.open(sums == nil) {
		for i := range sums {
			o := &sums[i]
			j.sep(i).raw(`{"id":`).str(o.ID).raw(`,"units":`).int(int64(o.Units)).raw(`,"from":`).float(o.From).raw(`,"to":`).float(o.To).raw("}")
		}
		j.raw("]")
	}
	j.raw(`,"offset":`).int(int64(pg.Offset)).raw(`,"total":`).int(int64(total)).raw("}\n")
	return j.b, j.err
}

func appendNearbyBody(b []byte, q nearbyReq, rs []ingest.NearbyResult) ([]byte, error) {
	j := jsonBody{b: b}
	j.raw(`{"count":`).int(int64(len(rs))).raw(`,"k":`).int(int64(q.K)).raw(`,"radius":`).float(q.Radius).raw(`,"results":`)
	if j.open(rs == nil) {
		for i := range rs {
			r := &rs[i]
			j.sep(i).raw(`{"id":`).str(r.ID).raw(`,"x":`).float(r.X).raw(`,"y":`).float(r.Y).raw(`,"dist":`).float(r.Dist).raw("}")
		}
		j.raw("]")
	}
	j.raw(`,"t":`).float(q.T).raw("}\n")
	return j.b, j.err
}

// appendIngestAck is the 202 body of POST /v1/ingest.
func appendIngestAck(b []byte, accepted int, seq uint64, synced bool) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"synced":`...)
	b = strconv.AppendBool(b, synced)
	return append(b, "}\n"...)
}
