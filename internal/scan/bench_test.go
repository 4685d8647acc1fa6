package scan

import (
	"bytes"
	"context"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/infer"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// BenchmarkScanFirstTile is one scan_watershed job in process: Run over a
// serve.Server at its defaults (batch 8, 2 ms) serving front32 fp32 with
// the weights of seed 7, on the Nebraska 640² watershed with 100² chips at
// stride 36 (256 tiles), window 16, Hilbert order. Each iteration is one
// whole job, synthesis included. It reports first_tile_ms (Run's start to
// its first tile event, the end-to-end latency_p50_ms without the HTTP
// hop) and tiles_per_s over the tiles after the first. Outside the timed
// region: exporting and compiling the plan, and a four-tile warm-up scan
// that loads it and builds the first arenas.
func BenchmarkScanFirstTile(b *testing.B) {
	m, err := resnet.New(resnet.Config{
		Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 32, NumClasses: 2,
	}, tensor.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := onnxsize.Export(m, &buf); err != nil {
		b.Fatal(err)
	}
	plan, err := infer.LoadPlan(&buf)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(func(string) (*infer.Plan, error) { return plan, nil }, serve.Options{})
	defer srv.Close()

	req := api.ScanRequest{
		Model: "front32", Region: "Nebraska", TileSize: 640, ChipSize: 100, Stride: 36,
		Seed: 1, Order: api.ScanOrderHilbert, Window: 16,
	}.WithDefaults()
	if err := req.Validate(); err != nil {
		b.Fatal(err)
	}
	job := func(req api.ScanRequest) (first, rest time.Duration, tiles int) {
		var firstAt time.Time
		start := time.Now()
		j := Run(context.Background(), Config{Req: req, Model: req.Model, Backend: ServerBackend{S: srv}},
			func(ev api.ScanEvent, _ api.ScanJob) {
				if ev.Type == api.ScanEventTile && firstAt.IsZero() {
					firstAt = time.Now()
				}
			})
		if j.State != api.ScanStateDone || j.FailedTiles != 0 {
			b.Fatalf("scan ended %s (%s), %d failed tiles", j.State, j.Error, j.FailedTiles)
		}
		return firstAt.Sub(start), time.Since(firstAt), j.DoneTiles
	}
	warm := req
	warm.TileSize = req.ChipSize + req.Stride + 1
	job(warm)

	var first, rest time.Duration
	var after int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, r, n := job(req)
		first += f
		rest += r
		after += n - 1
	}
	b.StopTimer()
	b.ReportMetric(float64(first)/float64(time.Millisecond)/float64(b.N), "first_tile_ms")
	b.ReportMetric(float64(after)/rest.Seconds(), "tiles_per_s")
}
