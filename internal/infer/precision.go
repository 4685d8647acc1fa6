package infer

import (
	"fmt"
	"strings"
)

// Precision identifies the numeric mode a compiled plan executes in.
type Precision string

const (
	// PrecisionFP32 is the float32 mode every Compile produces.
	PrecisionFP32 Precision = "fp32"
	// PrecisionInt8 is the post-training-quantized mode Plan.Quantize
	// produces: int8 activations and weights, int32 accumulation, float32
	// logits.
	PrecisionInt8 Precision = "int8"
)

// ParsePrecision normalizes a user-supplied precision selector. The empty
// string means fp32, keeping every pre-quantization client request valid.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fp32", "float32", "f32":
		return PrecisionFP32, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	default:
		return "", fmt.Errorf("infer: unknown precision %q (want fp32 or int8)", s)
	}
}

// ParseModelKey splits a serving-tier model key into its model name and
// precision: "culvert@int8" selects the int8 form of model "culvert", a bare
// name selects fp32. The separator never appears in exporter model names.
func ParseModelKey(key string) (name string, prec Precision, err error) {
	name, sel, found := strings.Cut(key, "@")
	if !found {
		return key, PrecisionFP32, nil
	}
	if name == "" {
		return "", "", fmt.Errorf("infer: model key %q has an empty model name", key)
	}
	prec, err = ParsePrecision(sel)
	if err != nil {
		return "", "", err
	}
	return name, prec, nil
}

// ModelKey joins a model name and precision back into a serving key, the
// inverse of ParseModelKey. fp32 keys stay bare for compatibility.
func ModelKey(name string, prec Precision) string {
	if prec == PrecisionFP32 || prec == "" {
		return name
	}
	return name + "@" + string(prec)
}
