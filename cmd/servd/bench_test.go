package main

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"drainnas/internal/frontend"
	"drainnas/internal/fronttest"
	"drainnas/internal/resnet"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// BenchmarkHTTPReplicaLoopback is the router→servd hop at the paper's
// 5×100×100 chip with the model all but stubbed out. Inside the timed
// region: route.HTTPReplica.Submit on a kept-alive loopback connection —
// api.PredictFromTensor, json.Marshal, the POST — and the real handler
// chain (frontend.New over servd's tier) behind an httptest.Server — access
// log (to io.Discard), api.ReadPredict, Tensor(), serve.Submit with -max-batch 1 so nothing
// waits on the batch timer, a width-1 ResNet as the plan (the stub: the
// "stub" sub-benchmark's share of the total is what it costs), the JSON
// answer — and decoding that answer back into serve.Response. Outside:
// exporting and loading the plan, dialling.
func BenchmarkHTTPReplicaLoopback(b *testing.B) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)

	dir := b.TempDir()
	fronttest.WriteModel(b, dir, "stub", resnet.Config{
		Channels: 5, Batch: 1, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2, InitialOutputFeature: 1, NumClasses: 2,
	})
	srv := serve.NewServer(serve.DirLoader(dir), serve.Options{MaxBatch: 1})
	defer srv.Close()
	x := tensor.RandNormal(tensor.NewRNG(1), 1, 5, 100, 100)
	ctx := context.Background()

	b.Run("stub", func(b *testing.B) {
		if _, err := srv.Submit(ctx, "stub", x); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Submit(ctx, "stub", x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hop", func(b *testing.B) {
		ts := httptest.NewServer(frontend.New(tier{srv: srv, modelDir: dir}, frontend.Config{}))
		defer ts.Close()
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		rep := route.NewHTTPReplica("", ts.URL, client)
		if _, err := rep.Submit(ctx, "stub", x); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rep.Submit(ctx, "stub", x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
