// Package fronttest is the test harness the two serving binaries share:
// the model writer, the surface table both tiers are held to (surface.go),
// the golden stats/metrics shapes, and the build/start/stop helpers of the
// binary smokes. cmd/servd and cmd/router supply a Harness around their
// frontend.Tier and run the same rows.
package fronttest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// Tiny is the configuration of tiny.dnnx; wide.dnnx doubles its width and
// wet.dnnx takes the scan corpus's five channels.
var Tiny = resnet.Config{
	Channels: 3, Batch: 4, KernelSize: 3, Stride: 2, Padding: 1,
	PoolChoice: 0, InitialOutputFeature: 4, NumClasses: 2,
}

// WriteModel exports an untrained cfg-shaped container as dir/name.dnnx.
func WriteModel(t testing.TB, dir, name string, cfg resnet.Config) {
	t.Helper()
	m, err := resnet.New(cfg, tensor.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".dnnx"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// WriteModels exports tiny, wide and wet into dir: mixed-model predict
// traffic plus a model that accepts synthesized watershed chips.
func WriteModels(t testing.TB, dir string) {
	t.Helper()
	wide, wet := Tiny, Tiny
	wide.InitialOutputFeature = 8
	wet.Channels = 5
	WriteModel(t, dir, "tiny", Tiny)
	WriteModel(t, dir, "wide", wide)
	WriteModel(t, dir, "wet", wet)
}

// Chip is a 3x16x16 predict request for model; slo and precision may be
// empty.
func Chip(model, slo, precision string) api.PredictRequest {
	x := tensor.RandNormal(tensor.NewRNG(5), 1, Tiny.Channels, 16, 16)
	return api.PredictRequest{Model: model, SLO: slo, Precision: precision, Shape: []int{Tiny.Channels, 16, 16}, Data: x.Data()}
}

func predictJSON(t testing.TB, req api.PredictRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// PredictBody is Chip(model, slo, "") on the wire.
func PredictBody(t testing.TB, model, slo string) []byte {
	t.Helper()
	return []byte(predictJSON(t, Chip(model, slo, "")))
}
