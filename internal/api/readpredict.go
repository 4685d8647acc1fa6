package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
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
// which message are encoding/json's by construction. A number is read as
// strconv.ParseFloat(s, 32) reads it, and base64 through
// base64.StdEncoding, the calls encoding/json makes, so accepted values
// are bit-identical too.
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

// number scans the JSON number literal at b[i] in one pass and returns
// the index after it, or -1 when the bytes there are not one
// (strconv.ParseFloat alone will not do: it also takes "inf", hex floats,
// underscores and a bare leading point). On the way it gathers the
// literal's digits into a mantissa m and its decimal exponent e, and
// when m < 10^15 and |e| ≤ 22 it also returns the value, exactly as
// strconv.ParseFloat(s, 32) rounds it, and says so with exact. Then m and
// 10^|e| are exact float64s, so one multiply or divide rounds the decimal
// once, to float64 (Clinger's fast path). float32's values and the
// midpoints between them are float64s too, so the decimal and its float64
// rounding lie between the same two of them, and rounding on to float32
// picks the float32 nearest the decimal — unless the float64 landed on a
// midpoint itself, where the decimal's side is lost and the literal is
// left to strconv. A nonzero fast-path value lies in [1e-22, 1e37], where
// float32 is normal and cannot overflow, so a midpoint is a float64 whose
// 29 bits below float32's precision are 1000…0.
func number(b []byte, i int) (f float32, end int, exact bool) {
	if i == len(b) {
		return 0, -1, false
	}
	// Half the values of a chip are negative and most integer parts are
	// "0", so the sign is taken without a branch and the leading-zero test
	// looks at the digit only when there are two: a mispredicted branch
	// per number costs as much as the rest of the scan.
	neg := 0
	if b[i] == '-' {
		neg = 1
	}
	i += neg
	start := i
	var m uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	if i == start || i > start+1 && b[start] == '0' {
		return 0, -1, false
	}
	nd, e := i-start, 0 // the literal is ±m·10^e, m of nd digits
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i = frac; i+16 <= len(b) {
			v, n := digitRun(b, i)
			m = m*uint64pow10[n] + v
			i += n
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, -1, false
		}
		nd += i - frac
		e = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		start, x := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 1e6 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, -1, false
		}
		if eneg {
			x = -x
		}
		e += x
	}
	// Past 19 digits m has wrapped; below that, m < 10^15 is "at most 15
	// significant digits".
	if nd > 19 || m >= 1e15 || e < -22 || e > 22 {
		return 0, i, false
	}
	x := float64(int64(m)) // m < 10^15: the signed conversion is one instruction
	if e >= 0 {
		x *= float64pow10[e]
	} else {
		x /= float64pow10[-e]
	}
	if math.Float64bits(x)&(1<<29-1) == 1<<28 {
		return 0, i, false
	}
	return math.Float32frombits(math.Float32bits(float32(x)) | uint32(neg)<<31), i, true
}

// float64pow10 holds the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// uint64pow10 scales a mantissa past a run of up to 16 digits.
var uint64pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
}

// digitRun reads the run of decimal digits that starts b[i:i+16] — its
// value and its length n, at most 16 — from two 8-byte loads and no
// branch on the data (Lemire, "Number Parsing at a Gigabyte per Second").
// XOR '0' leaves a digit byte holding its value, and adding 0x76 sets the
// high bit of exactly the bytes above 9, so the lowest flagged byte ends
// the run; a carry out of a flagged byte can only flag bytes after it.
// The second word counts only when the first is all digits.
func digitRun(b []byte, i int) (v uint64, n int) {
	x0 := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
	x1 := binary.LittleEndian.Uint64(b[i+8:]) ^ 0x3030303030303030
	n0 := bits.TrailingZeros64(((x0+0x7676767676767676)|x0)&0x8080808080808080) >> 3
	n1 := bits.TrailingZeros64(((x1+0x7676767676767676)|x1)&0x8080808080808080) >> 3
	n1 &= -(n0 >> 3)
	return eightDigits(x0<<(64-8*n0))*uint64pow10[n1] + eightDigits(x1<<(64-8*n1)), n0 + n1
}

// eightDigits is the value of the eight digit bytes in x, the first in
// the low byte; a run shorter than eight is shifted up under zeros first.
// Neighbouring digits, then pairs, then quads are combined by multiplies.
func eightDigits(x uint64) uint64 {
	x = x*10 + x>>8
	return ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32 & 0xFFFFFFFF
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
		f, end, exact := number(b, i)
		if end < 0 || !valueEnds(b, end) {
			return nil, i, false
		}
		if !exact {
			f64, err := strconv.ParseFloat(string(b[i:end]), 32)
			if err != nil {
				return nil, i, false
			}
			f = float32(f64)
		}
		dst = append(dst, f)
		if end+1 < len(b) && b[end] == ',' && b[end+1] > ' ' { // compact JSON: the next number
			i = end + 1
			continue
		}
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
