# Tier-1 verification plus the hardening suites added with the serving
# layer. `make ci` is the full gate; individual targets match its stages.

GO ?= go
FUZZTIME ?= 5s

.PHONY: ci vet build test selectors race fuzz race-all crash-resume bench-kernels bench-infer bench-serve bench-smoke obs-smoke router-smoke tenant-smoke scan-smoke quant-parity sim-replay repro-check

ci: vet build test selectors race crash-resume fuzz bench-smoke obs-smoke router-smoke tenant-smoke scan-smoke quant-parity sim-replay repro-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with dedicated concurrency suites. `race-all` widens this to
# every internal package (slower; the numeric packages dominate).
race:
	$(GO) test -race ./internal/sched/... ./internal/serve/... ./internal/route/... ./internal/tenant/... ./internal/httpx/... ./internal/infer/... ./internal/profiler/... ./internal/parallel/... ./internal/metrics/... ./internal/tensor/... ./internal/scan/... ./internal/frontend/... ./cmd/servd/... ./cmd/router/...

race-all:
	$(GO) test -race ./internal/...

# Sweep durability gate: the crash/resume, streaming-journal, cancellation
# and retry suites under the race detector, including the binary-level
# SIGINT → drain → -resume test.
CRASH_RUN  = CrashResume|Journal|MapCtx|Retry|Resume|Sweep|Interrupt
CRASH_PKGS = ./internal/nas ./internal/parallel ./internal/metrics ./cmd/nascli
crash-resume:
	$(GO) test -race -run '$(CRASH_RUN)' $(CRASH_PKGS)

# Observability smoke: build the real servd binary, scrape GET /v1/metrics
# over HTTP, and hold the page to the exposition validator (line grammar,
# family contiguity, histogram bucket invariants); also exercises the SIGTERM
# drain, the in-process metrics rows of the surface table on both tiers, and
# the two checks that every tagged field of the stats documents is declared
# consistently and reaches the rendered page.
OBS_RUN  = ServdMetricsSmoke|ServdGracefulShutdown|MetricsEndpoint|MetricDeclarations|EveryTaggedFieldIsRendered
OBS_PKGS = ./cmd/servd ./cmd/router ./internal/metrics
obs-smoke:
	$(GO) test -race -run '$(OBS_RUN)' $(OBS_PKGS)

# Routing-tier smoke: build the real router binary over three in-process
# replicas, push 200 mixed-model requests through it, require non-zero
# traffic on every replica, and drain cleanly on SIGTERM. Also exercises
# the plan→cost-graph SJF seeding path end to end.
ROUTER_RUN = RouterSmoke|RouterBinarySJFSeeding
router-smoke:
	$(GO) test -race -count=1 -run '$(ROUTER_RUN)' ./cmd/router

# Multi-tenant edge gate: boot the real servd binary (built -race) with a
# key file, assert 401 for bad keys and 429 quota_exceeded for a dry
# bucket, require full compliant-tenant goodput under a two-tenant flood,
# complete a live-dashboard WebSocket handshake + SSE stream, and run the
# surface table's tenant rows on both tiers and the in-process tier suites
# (fairness pin included) under the race detector.
TENANT_RUN  = ServdTenantSmoke|TenantTier
TENANT_PKGS = ./cmd/servd ./cmd/router
tenant-smoke:
	$(GO) test -race -count=1 -run '$(TENANT_RUN)' $(TENANT_PKGS)
	$(GO) test -race -count=1 ./internal/tenant

# Whole-watershed scan gate: a race-built servd replica behind a
# race-built router, a small synthetic watershed scanned end to end
# through the /v1/scan job API (ordered gapless event stream, nonzero
# crossings, byte-identical heat map across two runs, clean drain after a
# mid-scan cancel, clean SIGTERM exits), plus the in-process scan engine
# and API-surface golden suites (route walk, error envelopes, the captured
# stats/metrics shapes, the README tables) under the race detector.
SCAN_RUN  = RouterScanSmoke|APISurface|Readme
SCAN_PKGS = ./cmd/router ./cmd/servd ./internal/api
scan-smoke:
	$(GO) test -race -count=1 -run '$(SCAN_RUN)' $(SCAN_PKGS)
	$(GO) test -race -count=1 ./internal/scan

# Simulator determinism + replay gate: a seeded simulation must render
# byte-identically across runs, a recorded trace must replay to the exact
# report of the run that produced it (in the sim package and through the
# capsim CLI and the front end's -trace recorder), calibrating against the
# checked-in /v1/stats fixture must land within 15% MAPE, and the simulator
# must decide what the live router decides (same requests throttled, same
# gate grant order, same latencies) for one scripted arrival sequence.
SIM_RUN  = SimDeterminism|TraceRoundTrip|Replay|Calibration|Capsim|TraceRecording|Fixture|SimMatchesLive
SIM_PKGS = ./internal/sim ./internal/route ./cmd/capsim ./cmd/servd ./cmd/router
sim-replay:
	$(GO) test -race -count=1 -run '$(SIM_RUN)' $(SIM_PKGS)

# Int8 parity gate: randomized PaperSpace models trained on a miniature
# drainage corpus, quantized plans held to the documented logit-error and
# top-1-agreement bounds against the float oracle.
QUANT_RUN = TestQuantParity
quant-parity:
	$(GO) test -count=1 -run '$(QUANT_RUN)' ./internal/infer

# Reproduction pin: the full surrogate sweep must attempt 1,728 trials, keep
# 1,717 and end in exactly the five non-dominated solutions EXPERIMENTS.md
# tabulates (kernel 3, stride 2, width 32, the 11.21 MB memory floor), and
# the latency predictors must hold Table 2's share within ±10 %. Whatever
# bends the reproduction — accuracy model, cost model, export size — fails
# here by name.
REPRO_RUN  = ReproCheck
REPRO_PKGS = ./internal/core ./internal/latmeter
repro-check:
	$(GO) test -count=1 -run '$(REPRO_RUN)' $(REPRO_PKGS)

# go test -run X passes when X matches nothing, so a renamed or moved test
# can hollow out a gate unnoticed: every selector above, and every benchmark
# selector below, must list at least one name in each package it runs on.
selectors:
	@check() { pat=$$1; shift; for pkg in "$$@"; do \
		out=$$($(GO) test -list "$$pat" $$pkg) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -qv '^ok' || { echo "selector '$$pat' matches no test in $$pkg"; exit 1; }; \
	done; }; \
	check '$(CRASH_RUN)' $(CRASH_PKGS) && \
	check '$(OBS_RUN)' $(OBS_PKGS) && \
	check '$(ROUTER_RUN)' ./cmd/router && \
	check '$(TENANT_RUN)' $(TENANT_PKGS) && \
	check '$(SCAN_RUN)' $(SCAN_PKGS) && \
	check '$(SIM_RUN)' $(SIM_PKGS) && \
	check '$(QUANT_RUN)' ./internal/infer && \
	check '$(REPRO_RUN)' $(REPRO_PKGS) && \
	check '$(KBENCH_TENSOR)' ./internal/tensor && \
	check '$(KBENCH_ROOT)' . && \
	check '$(IBENCH)' ./internal/infer && \
	check '$(SBENCH_API)' ./internal/api && \
	check '$(SBENCH_TIER)' ./internal/tenant && \
	check '$(SBENCH_HOP)' ./cmd/servd

# Short fuzz smoke runs: the container decoder and the runtime loader must
# reject arbitrary input without panicking, the int8 quantizer must
# round-trip arbitrary (value, scale) pairs within its saturation bounds,
# the predict-body scanner must agree with encoding/json on arbitrary bytes
# (same accept/reject, same values, bit-exact floats), and the serving-trace
# decoder must reject or round-trip whatever it is fed.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME) ./internal/onnxsize
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/onnxsize
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/infer
	$(GO) test -run='^$$' -fuzz=FuzzQuantizeRoundTrip -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzReadPredict -fuzztime=$(FUZZTIME) ./internal/api
	$(GO) test -run='^$$' -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/sim

# Kernel benchmark selections: the GEMM shapes and the deployed model's
# convolution shapes (front32 at 5x100x100, batch 1 and 8; their backward at
# 32x32 batch 16, what NAS trains, and 100x100 batch 8), the conv/training
# ablations, one surrogate-sweep trial measurement (core.Measure over the
# enumerated PaperSpace, with allocs/op), and the compiled-inference path on
# a 32x32 chip and at the deployment size.
KBENCH_TENSOR = ^(BenchmarkMM256|BenchmarkMM512|BenchmarkMMWide|BenchmarkGEMMKernelOnly|BenchmarkConvPlanShapes|BenchmarkConvBackwardShapes)$$
KBENCH_ROOT   = ^(BenchmarkAblation_ConvParallelism|BenchmarkTrainingStep|BenchmarkAblation_BNFolding|BenchmarkSweepMeasure)$$
SBENCH_API    = ^(BenchmarkReadPredictJSON|BenchmarkReadPredictB64|BenchmarkReadPredictStdlib)$$
SBENCH_TIER   = ^BenchmarkTierWrapNoop$$
SBENCH_HOP    = ^BenchmarkHTTPReplicaLoopback$$
IBENCH        = ^(BenchmarkInterpretedBatch1|BenchmarkCompiledBatch1|BenchmarkQuantizedBatch1|BenchmarkInterpretedBatch8|BenchmarkCompiledBatch8|BenchmarkQuantizedBatch8|BenchmarkFront32(FP32|Int8)Batch(1|4|8))$$

# Appends one run record (ns/op + GFLOP/s per shape, plus machine/kernel
# metadata) to the checked-in BENCH_kernels.json trajectory; KERNEL_NOTE is
# stored with the run and names the change it measures.
KERNEL_NOTE ?=
bench-kernels:
	{ $(GO) test -run='^$$' -bench '$(KBENCH_TENSOR)' ./internal/tensor && \
	  $(GO) test -run='^$$' -bench '$(KBENCH_ROOT)' . ; } \
	  | $(GO) run ./cmd/benchjson -out BENCH_kernels.json -note '$(KERNEL_NOTE)'

# Compiled-plan inference trajectory: interpreted vs compiled forwards at
# batch 1 and batch 8, with -benchmem so allocs/op and B/op land in the
# record (the compiled path's arena claim is "steady-state allocs ≈ 0"),
# and front32 at 5x100x100, fp32 and int8, batch 1/4/8, in ms per sample.
bench-infer:
	$(GO) test -run='^$$' -bench '$(IBENCH)' -benchmem ./internal/infer \
	  | $(GO) run ./cmd/benchjson -out BENCH_infer.json

# Request-path ladder, one rung per serving layer with the model stubbed
# out: predict-body decode (the single-pass scanner on a JSON number array
# and on data_b64, beside the encoding/json decode it replaced), the tenant
# tier around a no-op handler, and the router→servd hop over loopback.
# SERVE_NOTE is stored with the run and says what each timed region holds.
SERVE_NOTE = ReadPredict*: body bytes in memory -> api.PredictRequest (read + decode; not Tensor(), no socket), \
Stdlib = the json.Decoder decode both handlers ran before. TierWrapNoop: Tier.Wrap end to end (auth, quota, \
ReadPredict, idle fair gate, audit line, stats) around an empty handler. HTTPReplicaLoopback/hop: HTTPReplica.Submit \
(PredictFromTensor + json.Marshal + POST over kept-alive loopback) + frontend.New over servd: access log, ReadPredict, Tensor(), \
serve.Submit at max-batch 1 on a width-1 ResNet, answer encode + decode; /stub is that serve.Submit alone. Chips are 5xSxS.
bench-serve:
	{ $(GO) test -run='^$$' -bench '$(SBENCH_API)' -benchmem ./internal/api && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_TIER)' -benchmem ./internal/tenant && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_HOP)' -benchmem ./cmd/servd ; } \
	  | $(GO) run ./cmd/benchjson -out BENCH_serve.json -note '$(SERVE_NOTE)'

# CI stage: build the benchmarks and run each selected kernel benchmark once
# (-benchtime=1x), through the same JSON harness, without touching the
# checked-in trajectory.
bench-smoke:
	{ $(GO) test -run='^$$' -bench '$(KBENCH_TENSOR)' -benchtime=1x ./internal/tensor && \
	  $(GO) test -run='^$$' -bench '$(KBENCH_ROOT)' -benchtime=1x . && \
	  $(GO) test -run='^$$' -bench '$(IBENCH)' -benchtime=1x -benchmem ./internal/infer && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_API)' -benchtime=1x -benchmem ./internal/api && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_TIER)' -benchtime=1x -benchmem ./internal/tenant && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_HOP)' -benchtime=1x -benchmem ./cmd/servd ; } \
	  | $(GO) run ./cmd/benchjson -out .bench_smoke.json -note ci-smoke
	rm -f .bench_smoke.json
