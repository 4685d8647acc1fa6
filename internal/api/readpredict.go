package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// predictPresizeMax bounds how much of a request's declared Content-Length
// is allocated before any of it has arrived; a longer body grows the
// buffer as it is read.
const predictPresizeMax = 4 << 20

// decodedPredict is what ReadPredict leaves on a request: the decoded
// body (or why it did not decode) on the context, and — as the request's
// new Body — a replay of the bytes it was decoded from, for a handler
// that still reads r.Body itself. One allocation holds all of it.
type decodedPredict struct {
	bytes.Reader
	req   PredictRequest
	err   error
	shape [3]int // backs req.Shape
}

func (*decodedPredict) Close() error { return nil }

type predictCtxKey struct{}

var predictDecodes atomic.Uint64

// PredictDecodes counts the predict bodies this process has read and
// decoded. Every tier a request crosses calls ReadPredict, and one request
// must move this by exactly one.
func PredictDecodes() uint64 { return predictDecodes.Load() }

// ReadPredict is the one way a /v1/predict body is decoded. The first call
// on a request reads the body (at most MaxPredictBodyBytes), decodes it,
// and returns the request to hand on: it carries the result on its
// context, so ReadPredict on it — the handler behind the tenant tier —
// returns the same value without touching the body, and its Body replays
// the original bytes. The error is encoding/json's, or the body reader's.
func ReadPredict(r *http.Request) (*PredictRequest, *http.Request, error) {
	if d, ok := r.Context().Value(predictCtxKey{}).(*decodedPredict); ok {
		return &d.req, r, d.err
	}
	predictDecodes.Add(1)
	d := &decodedPredict{}
	var body []byte
	if r.Body != nil {
		// Sized for the declared length plus the read that reports EOF,
		// and read to one byte past the cap: that byte tells an oversized
		// body from one that just fits, and stays in the replay so a
		// handler applying its own cap still sees it.
		body = make([]byte, 0, min(max(r.ContentLength, 0), predictPresizeMax)+bytes.MinRead)
		for len(body) <= MaxPredictBodyBytes && d.err == nil {
			if len(body) == cap(body) {
				body = append(body, 0)[:len(body)]
			}
			var n int
			n, d.err = r.Body.Read(body[len(body):min(cap(body), MaxPredictBodyBytes+1)])
			body = body[:len(body)+n]
		}
		if d.err == io.EOF {
			d.err = nil
		}
		r.Body.Close()
	}
	d.Reset(body)
	r.Body = d
	switch {
	case d.err != nil:
	case len(body) > MaxPredictBodyBytes:
		d.err = &http.MaxBytesError{Limit: MaxPredictBodyBytes}
	case !d.scan(body):
		d.req = PredictRequest{}
		d.err = json.NewDecoder(bytes.NewReader(body)).Decode(&d.req)
	}
	return &d.req, r.WithContext(context.WithValue(r.Context(), predictCtxKey{}, d)), d.err
}

// The keys of a predict body, as bits of the scanner's seen set.
const (
	seenModel = 1 << iota
	seenShape
	seenData
	seenDataB64
	seenSLO
	seenPrecision
)

// scan decodes body into d.req in one pass, for the bodies real clients
// send: one object whose keys are the lower-case field names, each at most
// once, with plain ASCII strings, a shape of small integers and either
// number array or base64 string for the values. It reports false the
// moment it meets anything else — an escape, a null, an unknown or
// differently-cased key, a duplicate, a number float32 cannot hold, a
// syntax error, the end of the bytes — and the caller then gives the same
// bytes to encoding/json, so what is accepted, what is rejected and with
// which message are encoding/json's by construction. Numbers go through
// strconv.ParseFloat(s, 32) and base64 through base64.StdEncoding, the
// calls encoding/json makes, so accepted values are bit-identical too.
// Like json.Decoder, it stops at the object's closing brace.
func (d *decodedPredict) scan(b []byte) bool {
	req := &d.req
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return true
	}
	seen := 0
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return false
		}
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		var bit int
		var str []byte
		switch string(key) {
		case "model":
			bit = seenModel
			str, i, ok = plainString(b, i)
			req.Model = string(str)
		case "slo":
			bit = seenSLO
			str, i, ok = plainString(b, i)
			req.SLO = wireWord(str)
		case "precision":
			bit = seenPrecision
			str, i, ok = plainString(b, i)
			req.Precision = wireWord(str)
		case "shape":
			bit = seenShape
			req.Shape, i, ok = intArray(b, i, d.shape[:0])
		case "data":
			bit = seenData
			req.Data, i, ok = floatArray(b, i)
		case "data_b64":
			bit = seenDataB64
			req.DataB64, i, ok = base64String(b, i)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit

		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case '}':
			return true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// afterElement steps over what follows an array element at b[i]: a comma,
// after which more is true and next is the next element's index, or the
// closing bracket, after which next is the index past it. Anything else,
// the end of the bytes included, is not ok.
func afterElement(b []byte, i int) (next int, more, ok bool) {
	if i = skipSpace(b, i); i == len(b) {
		return i, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true, true
	case ']':
		return i + 1, false, true
	}
	return i, false, false
}

// valueEnds reports whether b[i] can follow a number inside an array.
func valueEnds(b []byte, i int) bool {
	if i == len(b) {
		return false
	}
	switch b[i] {
	case ',', ']', ' ', '\n', '\t', '\r':
		return true
	}
	return false
}

// plainString scans the string literal at b[i] when it needs no decoding:
// printable ASCII with no backslash. It returns the bytes between the
// quotes and the index after the closing one.
func plainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < ' ' || c >= 0x80:
			return nil, i, false
		}
	}
	return nil, i, false
}

// wireWord returns s as a string, without allocating when it is one of
// the fixed words the slo and precision fields take.
func wireWord(s []byte) string {
	switch string(s) {
	case "interactive":
		return "interactive"
	case "standard":
		return "standard"
	case "batch":
		return "batch"
	case "fp32":
		return "fp32"
	case "int8":
		return "int8"
	}
	return string(s)
}

// intArray scans an array of plain decimal integers of at most nine digits
// (so they fit an int of any width) into dst.
func intArray(b []byte, i int, dst []int) (_ []int, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start, v := i, 0
		for i < len(b) && b[i]-'0' <= 9 {
			v = v*10 + int(b[i]-'0')
			if i++; i-start > 9 {
				return nil, i, false
			}
		}
		if i == start || (b[start] == '0' && i-start > 1) || !valueEnds(b, i) {
			return nil, i, false
		}
		if neg {
			v = -v
		}
		dst = append(dst, v)
		var more bool
		if i, more, ok = afterElement(b, i); !more {
			return dst, i, ok
		}
	}
}

// numberEnd returns the index after the JSON number literal at b[i], or -1
// when the bytes there are not one. strconv.ParseFloat alone will not do:
// it also takes "inf", hex floats, underscores and a bare leading point.
func numberEnd(b []byte, i int) int {
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

// skipDigits returns the index after the run of digits at b[i], or -1 when
// there is none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// floatArray scans an array of JSON numbers into a float32 slice sized
// once: an array of n numbers holds n-1 commas and at least 2n-1 bytes,
// so the commas left in the body (the array's, and a few after it) bound
// its length without letting a body of nothing but commas ask for four
// times its own size.
func floatArray(b []byte, i int) (_ []float32, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	rest := b[i:]
	dst := make([]float32, 0, min(bytes.Count(rest, []byte{','})+1, len(rest)/2+1))
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		end := numberEnd(b, i)
		if end < 0 || !valueEnds(b, end) {
			return nil, i, false
		}
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil {
			return nil, i, false
		}
		dst = append(dst, float32(f))
		var more bool
		if i, more, ok = afterElement(b, end); !more {
			return dst, i, ok
		}
	}
}

// base64String decodes the string literal at b[i] as encoding/json decodes
// one into a []byte. The closing quote is the first quote: an escaped one
// leaves a backslash in the span, which — like every other byte that
// would need decoding first — is outside the base64 alphabet and fails
// the decode. Only CR and LF need their own check, because the base64
// decoder skips them while a JSON string may not hold them raw.
func base64String(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, i, false
	}
	src := b[i+1 : i+1+n]
	if bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
		return nil, i, false
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(n))
	m, err := base64.StdEncoding.Decode(dst, src)
	if err != nil {
		return nil, i, false
	}
	return dst[:m], i + n + 2, true
}
