package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"drainnas/internal/tensor"
)

func predictHTTP(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
}

// stdDecode is the decode both front ends ran before ReadPredict, and the
// oracle it is held to.
func stdDecode(body []byte) (PredictRequest, error) {
	var req PredictRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// diffPredict reports the first difference between two decoded requests:
// every field equal, nil told from empty, floats compared by their bits.
func diffPredict(got, want PredictRequest) error {
	gd, wd := got.Data, want.Data
	got.Data, want.Data = nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	if len(gd) != len(wd) || (gd == nil) != (wd == nil) {
		return fmt.Errorf("data: %d values (nil %v), want %d (nil %v)", len(gd), gd == nil, len(wd), wd == nil)
	}
	for i := range wd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			return fmt.Errorf("data[%d] = %x, want %x", i, math.Float32bits(gd[i]), math.Float32bits(wd[i]))
		}
	}
	return nil
}

// checkAgainstStd holds ReadPredict on body to encoding/json on the same
// bytes: same accept/reject, same message, same value; and what it
// accepts reads the same when the values travel as data_b64 instead.
func checkAgainstStd(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := stdDecode(body)
	got, _, err := ReadPredict(predictHTTP(body))
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadPredict(%.200q): err %v, encoding/json: %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if err := diffPredict(*got, want); err != nil {
		t.Fatalf("ReadPredict(%.200q): %v", body, err)
	}
	x, err := got.Tensor()
	if err != nil || got.DataB64 != nil {
		return
	}
	packed, err := PredictFromTensor(got.Model, got.SLO, x)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := json.Marshal(packed)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadPredict(predictHTTP(hop))
	if err != nil {
		t.Fatalf("hop body %.200q: %v", hop, err)
	}
	if back.Data != nil || back.Model != got.Model || back.SLO != got.SLO {
		t.Fatalf("hop body decoded to %+v", back)
	}
	y, err := back.Tensor()
	if err != nil {
		t.Fatalf("hop body %.200q: %v", hop, err)
	}
	if !reflect.DeepEqual(y.Shape(), x.Shape()) {
		t.Fatalf("hop shape %v, want %v", y.Shape(), x.Shape())
	}
	if err := diffPredict(PredictRequest{Data: y.Data()}, PredictRequest{Data: x.Data()}); err != nil {
		t.Fatalf("data_b64 round trip: %v", err)
	}
}

// predictSeeds are the bodies the differential checks start from: what the
// scanner decodes itself, and one of everything it hands to encoding/json.
var predictSeeds = []string{
	`{"model":"m","shape":[1,2,2],"data":[1,-2.5,3e-2,0]}`,
	`{"model":"m","precision":"int8","slo":"interactive","shape":[1,1,1],"data":[0.1]}`,
	" {\t\"model\" : \"m\" ,\r\n \"shape\" : [ 1 , 1 , 2 ] , \"data\" : [ 1 , 2 ] } ",
	`{"model":"m","shape":[1,1,2],"data_b64":"AACAPwAAAEA="}`,
	`{"model":"m","shape":[1,1,2],"data_b64":"AACAPwAAAEA"}`,
	`{"model":"m","shape":[1,1,2],"data_b64":"AACA\nPwAAAEA="}`,
	"{\"model\":\"m\",\"data_b64\":\"AACA\nPwAAAEA=\"}",
	`{"model":"m","data_b64":"AACA\"PwAAAEA="}`,
	`{"model":"m","data_b64":"AA=A"}`,
	`{"model":"m","data_b64":""}`,
	`{"model":"m","data_b64":null,"data":null,"shape":null}`,
	`{"model":"m","shape":[1,1,1],"data":[1],"data_b64":"AACAPw=="}`,
	`{}`,
	`{"model":"a","model":"b"}`,
	`{"data":[1,2,3],"data":[4]}`,
	`{"shape":[1,2,3],"shape":[4]}`,
	`{"Model":"m","SHAPE":[1,1,1],"Data":[2]}`,
	`{"model":"mA\n","slo":"\"x\""}`,
	"{\"model\":\"caf\xc3\xa9\"}",
	"{\"model\":\"bad\xff\"}",
	"{\"model\":\"tab\there\"}",
	`{"model":null,"slo":null}`,
	`{"model":"m","extra":{"nested":[1,{"a":null}]},"data":[1]}`,
	`{"data":[1e999]}`,
	`{"data":[-1e39,1e-50,3.4028235e38,3.4028236e38]}`,
	`{"data":[01]}`,
	`{"data":[1.]}`,
	`{"data":[.5]}`,
	`{"data":[+1]}`,
	`{"data":[1e]}`,
	`{"data":[0x10]}`,
	`{"data":[1_0]}`,
	`{"data":[Inf,NaN]}`,
	`{"data":[-0,0.0,-0.0e0,1E+2,1e-2]}`,
	`{"data":[1.83448864845559e-03,7.34046057004889e-06,1.96299845020353e+35,2.18492285455461e+20]}`,
	`{"data":[123456789012345,1234567890123456,1e22,1e23,1e-22,-1e-23,0.000123456789012345,1e-45,9937053619069047e-20,816690516333170e23]}`,
	`{"data":[1,]}`,
	`{"data":[,1]}`,
	`{"data":[]}`,
	`{"data":[ ]}`,
	`{"data":[1 2]}`,
	`{"data":["1"]}`,
	`{"data":[[1]]}`,
	`{"data":[true]}`,
	`{"shape":[]}`,
	`{"shape":[1.0,2,3]}`,
	`{"shape":[1e2,2,3]}`,
	`{"shape":[-0,-1,007]}`,
	`{"shape":[1234567890,1,1]}`,
	`{"shape":[99999999999999999999]}`,
	`{"shape":[1,2,3,4,5]}`,
	`{"shape":"x","model":5,"data":{}}`,
	`{"model":"m"`,
	`{"model":"m",`,
	`{"model":"m",}`,
	`{"model"`,
	`{"model":"m","data":[1,2`,
	`{"model":"m"} trailing garbage`,
	`{"model":"m"}{"model":"n"}`,
	`[1,2,3]`,
	`"model"`,
	`null`,
	``,
	`   `,
	"\xef\xbb\xbf{}",
}

func TestReadPredictMatchesEncodingJSON(t *testing.T) {
	for _, body := range predictSeeds {
		checkAgainstStd(t, []byte(body))
	}
}

func FuzzReadPredict(f *testing.F) {
	for _, body := range predictSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstStd(t, body) })
}

// TestReadPredictScansCommonBodies pins that the bodies clients really
// send stay on the single-pass path, with every number on the exact fast
// path and no allocation per number: a regression to the encoding/json
// fallback, to strconv, or to an allocating number would keep every other
// test green and cost 3x.
func TestReadPredictScansCommonBodies(t *testing.T) {
	x := tensor.RandNormal(tensor.NewRNG(3), 1, 5, 8, 8)
	hop, err := PredictFromTensor("front@int8", "batch", x)
	if err != nil {
		t.Fatal(err)
	}
	hopBody, err := json.Marshal(hop)
	if err != nil {
		t.Fatal(err)
	}
	curlBody, err := json.Marshal(PredictRequest{Model: "front", Shape: []int{5, 8, 8}, Data: x.Data(), SLO: "interactive", Precision: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{hopBody, curlBody, []byte(predictSeeds[2])} {
		var d decodedPredict
		if !d.scan(body) {
			t.Errorf("scanner handed %.80q to encoding/json", body)
		}
	}

	// A chip at the deployment size, its values encoded as bench/ posts them.
	chip, err := json.Marshal(tensor.RandNormal(tensor.NewRNG(1), 1, 5, 100, 100).Data())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	for i := 1; i < len(chip); {
		_, end, _ := number(chip, i)
		if !checkNumber(t, buf, string(chip[i:end])) {
			t.Fatalf("%q took the strconv fallback", chip[i:end])
		}
		i = end + 1
	}
	body := []byte(`{"model":"front32","shape":[5,100,100],"slo":"interactive","data":` + string(chip) + "}")
	r := predictHTTP(nil)
	r.ContentLength = int64(len(body))
	var rb replayBody
	allocs := testing.AllocsPerRun(5, func() {
		rb.Reset(body)
		r.Body = &rb
		if _, _, err := ReadPredict(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 6 {
		t.Fatalf("ReadPredict on a 5x100x100 chip: %v allocations, want 6", allocs)
	}
}

func TestReadPredictBodyCap(t *testing.T) {
	// Whitespace is the cheapest way to a body of an exact size.
	fits := bytes.Repeat([]byte{' '}, MaxPredictBodyBytes)
	copy(fits, `{"model":"m"`)
	fits[len(fits)-1] = '}'
	req, _, err := ReadPredict(predictHTTP(fits))
	if err != nil || req.Model != "m" {
		t.Fatalf("body of exactly the cap: %+v, %v", req, err)
	}

	over := append(fits[:len(fits)-1:len(fits)-1], ' ', '}')
	_, r, err := ReadPredict(predictHTTP(over))
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("body one byte past the cap: err %v, want *http.MaxBytesError", err)
	}
	// The replay keeps the byte that proves it, for a handler with its own cap.
	if n, _ := io.Copy(io.Discard, r.Body); n != MaxPredictBodyBytes+1 {
		t.Fatalf("replay holds %d bytes, want %d", n, MaxPredictBodyBytes+1)
	}
}

func TestReadPredictCachesOnTheRequest(t *testing.T) {
	body := `{"model":"m","slo":"batch","shape":[1,1,2],"data":[1,2]}`
	before := PredictDecodes()
	first, r, err := ReadPredict(predictHTTP([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	again, r2, err := ReadPredict(r)
	if err != nil || again != first || r2 != r {
		t.Fatalf("second ReadPredict: %p %v, want the cached %p", again, err, first)
	}
	if n := PredictDecodes() - before; n != 1 {
		t.Fatalf("%d decodes for one request, want 1", n)
	}
	if replay, _ := io.ReadAll(r.Body); string(replay) != body {
		t.Fatalf("r.Body replays %q, want %q", replay, body)
	}

	// A body that does not decode is cached as its error, not re-read.
	_, r, err = ReadPredict(predictHTTP([]byte(`{"model":`)))
	if err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, _, err2 := ReadPredict(r); err2 != err {
		t.Fatalf("second ReadPredict: %v, want the cached %v", err2, err)
	}
}

func TestPredictRequestTensorDataB64(t *testing.T) {
	le := tensor.AppendF32LE(nil, []float32{1, 2})
	x, err := PredictRequest{Shape: []int{1, 1, 2}, DataB64: le}.Tensor()
	if err != nil || x.Data()[0] != 1 || x.Data()[1] != 2 {
		t.Fatalf("data_b64 tensor: %v, %v", x, err)
	}
	for _, tc := range []struct {
		name string
		req  PredictRequest
		want string
	}{
		{"both set", PredictRequest{Shape: []int{1, 1, 2}, Data: []float32{1, 2}, DataB64: le}, "both set"},
		{"ragged", PredictRequest{Shape: []int{1, 1, 2}, DataB64: le[:7]}, "whole number"},
		{"short", PredictRequest{Shape: []int{1, 1, 3}, DataB64: le}, "data has 2 values"},
	} {
		if _, err := tc.req.Tensor(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Bad base64 never reaches Tensor: it is a decode error, encoding/json's.
	_, _, err = ReadPredict(predictHTTP([]byte(`{"model":"m","shape":[1,1,2],"data_b64":"AAC*PwAAAEA="}`)))
	if err == nil || !strings.Contains(err.Error(), "illegal base64") {
		t.Fatalf("bad base64: err %v", err)
	}
}

func TestPredictFromTensor(t *testing.T) {
	for _, shape := range [][]int{{3, 4, 4}, {1, 3, 4, 4}} {
		req, err := PredictFromTensor("tiny@int8", "batch", tensor.New(shape...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.Shape, []int{3, 4, 4}) || req.Model != "tiny@int8" || req.SLO != "batch" ||
			req.Data != nil || len(req.DataB64) != 4*48 {
			t.Fatalf("PredictFromTensor(%v) = %+v", shape, req)
		}
	}
	for _, bad := range []*tensor.Tensor{nil, tensor.New(2, 3, 4, 4), tensor.New(4, 4)} {
		if _, err := PredictFromTensor("tiny", "", bad); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}
