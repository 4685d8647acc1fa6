package api

import (
	"fmt"

	"drainnas/internal/infer"
	"drainnas/internal/tensor"
)

// PredictRequest is the POST /v1/predict body both front ends accept. SLO
// is honored by the router tier ("batch", "standard", "interactive";
// empty = standard) and ignored by a bare replica, so one client payload
// works against either tier.
//
// The input values travel in exactly one of two fields: Data, a JSON number
// array (what curl and any JSON library produce), or DataB64, the same
// values as little-endian IEEE-754 binary32 — a base64 JSON string on the
// wire, which encoding/json reads and writes for a []byte by itself. The
// second costs a tenth of the first to produce and to parse at paper-sized
// chips, so every Go caller in this repository sends it (PredictFromTensor).
type PredictRequest struct {
	Model   string    `json:"model"`
	Shape   []int     `json:"shape"` // (C, H, W)
	Data    []float32 `json:"data,omitempty"`
	DataB64 []byte    `json:"data_b64,omitempty"`
	SLO     string    `json:"slo,omitempty"`
	// Precision selects the deployment arithmetic ("fp32" default, or
	// "int8" for the post-training-quantized form of the same container).
	// Equivalent to suffixing Model with "@int8"; setting both to
	// conflicting values is a bad_input error.
	Precision string `json:"precision,omitempty"`
}

// ResolveKey combines Model and Precision into the canonical serving key
// ("name" for fp32, "name@int8" for int8) the loader and model cache use.
func (req PredictRequest) ResolveKey() (string, error) {
	return ResolveServingKey(req.Model, req.Precision)
}

// ResolveServingKey combines a model name (which may itself carry an
// "@precision" suffix) and a precision string into the canonical serving
// key; conflicting suffix and precision is an error.
func ResolveServingKey(model, precision string) (string, error) {
	name, keyPrec, err := infer.ParseModelKey(model)
	if err != nil {
		return "", err
	}
	if precision == "" {
		return infer.ModelKey(name, keyPrec), nil
	}
	prec, err := infer.ParsePrecision(precision)
	if err != nil {
		return "", err
	}
	if keyPrec != infer.PrecisionFP32 && keyPrec != prec {
		return "", fmt.Errorf("model %q and precision %q conflict", model, precision)
	}
	return infer.ModelKey(name, prec), nil
}

// PredictResponse is the POST /v1/predict success body. Replica is set by
// the router tier (which replica served the request, and whether the winning
// attempt was a hedge); a bare replica leaves it empty.
type PredictResponse struct {
	Model     string    `json:"model"`
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits"`
	BatchSize int       `json:"batch_size"`
	QueuedMS  float64   `json:"queued_ms"`
	TotalMS   float64   `json:"total_ms"`
	Replica   string    `json:"replica,omitempty"`
	Hedged    bool      `json:"hedged,omitempty"`
	// Precision reports the arithmetic the serving plan ran at ("fp32" or
	// "int8"); Model is the bare model name with any precision suffix
	// stripped.
	Precision string `json:"precision,omitempty"`
}

// SplitServedModel splits a serving key back into the response's bare model
// name and precision string, treating unparseable keys as fp32 passthrough.
func SplitServedModel(key string) (model, precision string) {
	name, prec, err := infer.ParseModelKey(key)
	if err != nil {
		return key, string(infer.PrecisionFP32)
	}
	return name, string(prec)
}

// Tensor validates the request's shape/data agreement and builds the input
// tensor. The error text is client-facing (it lands in a bad_input envelope).
func (req PredictRequest) Tensor() (*tensor.Tensor, error) {
	if len(req.Shape) != 3 {
		return nil, fmt.Errorf("shape must be (C,H,W), got %v", req.Shape)
	}
	numel := 1
	for _, d := range req.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("shape %v has non-positive dim", req.Shape)
		}
		numel *= d
		if numel > 1<<26 {
			return nil, fmt.Errorf("shape %v too large", req.Shape)
		}
	}
	data := req.Data
	if len(req.DataB64) > 0 {
		if len(data) > 0 {
			return nil, fmt.Errorf("data and data_b64 are both set; send one")
		}
		if len(req.DataB64)%4 != 0 {
			return nil, fmt.Errorf("data_b64 holds %d bytes, not a whole number of float32 values", len(req.DataB64))
		}
		data = make([]float32, len(req.DataB64)/4)
		tensor.F32FromLE(data, req.DataB64)
	}
	if len(data) != numel {
		return nil, fmt.Errorf("data has %d values, shape %v implies %d", len(data), req.Shape, numel)
	}
	return tensor.FromSlice(data, req.Shape...), nil
}

// PredictFromTensor is the one constructor for an outgoing predict: input
// is a (C,H,W) chip or its (1,C,H,W) batch form, key the serving key (any
// "@precision" suffix rides in it), slo the class string ("" = standard).
// The values go out as DataB64.
func PredictFromTensor(key, slo string, input *tensor.Tensor) (PredictRequest, error) {
	if input == nil {
		return PredictRequest{}, fmt.Errorf("api: nil input")
	}
	shape := input.Shape()
	switch {
	case len(shape) == 4 && shape[0] == 1:
		shape = shape[1:]
	case len(shape) != 3:
		return PredictRequest{}, fmt.Errorf("api: input must be (C,H,W) or (1,C,H,W), got %v", shape)
	}
	return PredictRequest{
		Model: key, Shape: shape, SLO: slo,
		DataB64: tensor.AppendF32LE(nil, input.Data()),
	}, nil
}
