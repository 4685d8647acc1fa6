// Command servd serves exported model containers over HTTP with dynamic
// micro-batching: the production-shaped front end for the Pareto-front
// models the NAS pipeline selects. Containers live in a model directory
// (one .dnnx file per model, written by cmd/deploy -out or any
// onnxsize.Export caller); requests are admitted into internal/serve's
// bounded queue, batched per (model, spatial size), and executed on a
// worker pool through the compiled inference plans.
//
// The /v1/ surface, its error envelope, the -keys tenant tier and the
// SIGTERM drain are internal/frontend's, shared with cmd/router; the
// routes and codes are listed in internal/api (and the README). What is
// servd's own: /v1/stats is an api.ServdStats (serving counters, model
// cache, infer and GEMM kernel counters), /v1/healthz reports "degraded"
// (503) when the model directory is unreadable, a request's "slo" is
// validated but orders nothing, -trace records arrivals for capsim replay
// and -pprof mounts /debug/pprof/.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"drainnas/internal/api"
	"drainnas/internal/frontend"
	"drainnas/internal/metrics"
	"drainnas/internal/route"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/sim"
	"drainnas/internal/tensor"
)

func main() {
	cfg, so := frontend.Flags(flag.CommandLine, "127.0.0.1:8080", "")
	models := flag.String("models", ".", "directory of exported .dnnx model containers")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceOut := flag.String("trace", "", "record arrivals (t_ms, model, slo, shape) as JSONL to this file for capsim replay")
	flag.Parse()

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("servd: opening trace file: %v", err)
		}
		cfg.Trace = sim.NewTraceWriter(f)
		log.Printf("servd: recording serving trace to %s", *traceOut)
	}
	t := tier{srv: serve.NewServer(serve.DirLoader(*models), *so), modelDir: *models}
	if err := frontend.Serve(t, *cfg, "models from "+*models); err != nil {
		log.Fatalf("servd: %v", err)
	}
}

// tier is servd as a frontend.Tier: one batching server over one model
// directory.
type tier struct {
	srv      *serve.Server
	modelDir string
}

func (t tier) Name() string { return "servd" }

// Submit ignores the class: serve.Server batches per (model, size) and has
// no dispatch order to apply it to.
func (t tier) Submit(ctx context.Context, _ route.SLOClass, key string, input *tensor.Tensor) (route.Response, error) {
	resp, err := t.srv.Submit(ctx, key, input)
	return route.Response{Response: resp}, err
}

// ScanBackend puts tiles on the same micro-batching queue as predicts.
func (t tier) ScanBackend(route.SLOClass) scan.Backend { return scan.ServerBackend{S: t.srv} }

func (t tier) Stats(sec frontend.Sections) any {
	return api.ServdStats{
		Serving: t.Serving(),
		Cache:   t.srv.Cache().Stats(),
		Queue:   int(t.srv.Load()),
		Infer:   metrics.Infer.Snapshot(),
		Kernel:  metrics.Kernel.Snapshot(),
		Gemm:    tensor.GemmKernelName(),
		QGemm:   tensor.QGemmKernelName(),
		Scan:    sec.Scan,
		Tenant:  sec.Tenant,
		Fair:    sec.Fair,
	}
}

// Health degrades on an unreadable model directory: every predict would
// 404 or 500, so the server must not pass a readiness probe with zero
// models.
func (t tier) Health() api.HealthResponse {
	keys, err := serve.ListModels(t.modelDir)
	if err != nil {
		return api.HealthResponse{Status: "degraded", Error: err.Error()}
	}
	return api.HealthResponse{Status: "ok", Models: keys}
}

func (t tier) Serving() metrics.ServingSnapshot { return t.srv.Stats().Snapshot() }

func (t tier) Close() { t.srv.Close() }
