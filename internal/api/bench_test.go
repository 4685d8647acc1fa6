package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"drainnas/internal/tensor"
)

// benchSides are the chip sides the decode rungs run at: the unit-test
// size and the paper's deployment size (latmeter.DefaultInputSize).
var benchSides = []int{32, 100}

// benchPredictBody is a 5-channel predict body with every field set, the
// values as a number array (what a client posts) or as data_b64 (what
// route.HTTPReplica forwards).
func benchPredictBody(b *testing.B, side int, b64 bool) []byte {
	b.Helper()
	x := tensor.RandNormal(tensor.NewRNG(1), 1, 5, side, side)
	req := PredictRequest{Model: "front32", Shape: []int{5, side, side}, Data: x.Data()}
	if b64 {
		var err error
		if req, err = PredictFromTensor("front32", "", x); err != nil {
			b.Fatal(err)
		}
	}
	req.SLO, req.Precision = "interactive", "fp32"
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// replayBody is a request body the benchmark loop rewinds instead of
// reallocating, so the timed region holds only the decode's own allocations.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// benchDecode times decode on a fresh request per iteration. Inside the
// timed region: reading the body from memory and decoding it to a
// PredictRequest. Outside: building the request, Tensor(), any socket.
func benchDecode(b *testing.B, b64 bool, decode func(*http.Request) error) {
	for _, side := range benchSides {
		b.Run(fmt.Sprintf("5x%dx%d", side, side), func(b *testing.B) {
			body := benchPredictBody(b, side, b64)
			r := predictHTTP(nil)
			r.ContentLength = int64(len(body))
			var rb replayBody
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.Reset(body)
				r.Body = &rb
				if err := decode(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func readPredictOnly(r *http.Request) error {
	_, _, err := ReadPredict(r)
	return err
}

// stdlibDecode is the decode both handlers ran before ReadPredict.
func stdlibDecode(r *http.Request) error {
	var req PredictRequest
	return json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxPredictBodyBytes)).Decode(&req)
}

func BenchmarkReadPredictJSON(b *testing.B)   { benchDecode(b, false, readPredictOnly) }
func BenchmarkReadPredictB64(b *testing.B)    { benchDecode(b, true, readPredictOnly) }
func BenchmarkReadPredictStdlib(b *testing.B) { benchDecode(b, false, stdlibDecode) }
