# Tier-1 verification plus the hardening suites added with the serving
# layer. `make ci` is the full gate; individual targets match its stages.

GO ?= go
FUZZTIME ?= 5s

.PHONY: ci vet build test examples-smoke selectors race fuzz race-all crash-resume bench-kernels bench-infer bench-serve bench-smoke obs-smoke router-smoke tenant-smoke scan-smoke quant-parity sim-replay repro-check

ci: vet build test examples-smoke selectors race crash-resume fuzz bench-smoke obs-smoke router-smoke tenant-smoke scan-smoke quant-parity sim-replay repro-check

# bench/ is its own module (no dependencies, so this runs offline); it is
# frozen, and vetting it here keeps it compiling against the library. Every
# .go file in the tree, bench/ included, must be gofmt-clean.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l lists files to format:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Example smoke: run the README's quick examples (each well under a second
# once built) so a rotted example fails a gate. Each must exit 0, and
# quickstart's last line must be the one README quotes. examples/nas_search
# trains for minutes, so only `build` covers it.
examples-smoke:
	$(GO) run ./examples/latency_compare > /dev/null
	$(GO) run ./examples/multiobjective_search > /dev/null
	$(GO) run ./examples/quantized_serving > /dev/null
	@out=$$($(GO) run ./examples/quickstart) || exit 1; \
	last=$$(printf '%s\n' "$$out" | tail -n 1); \
	want='best efficient front member vs stock ResNet-18: 3.28x faster, 4.00x smaller, +2.40 accuracy points'; \
	[ "$$last" = "$$want" ] || { echo "quickstart ends with '$$last', want '$$want'"; exit 1; }; \
	grep -qxF "$$want" README.md || { echo "README no longer quotes '$$want'"; exit 1; }

# The packages with dedicated concurrency suites; core, whose sweep and
# NSGA-II measure trials on worker goroutines; the packages whose state
# those workers hold — latmeter's price tables, onnxsize's size tables and
# the memo table under both; and geodata, whose synthesis fills noise rows,
# carves lines and shades bands on every core. `race-all` widens this to
# every internal package (slower; the numeric packages dominate).
race:
	$(GO) test -race ./internal/sched/... ./internal/serve/... ./internal/route/... ./internal/tenant/... ./internal/httpx/... ./internal/infer/... ./internal/parallel/... ./internal/metrics/... ./internal/tensor/... ./internal/scan/... ./internal/frontend/... ./internal/core/... ./internal/latmeter/... ./internal/onnxsize/... ./internal/memo/... ./internal/geodata/... ./cmd/servd/... ./cmd/router/...

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
# read a snapshot off the live-dashboard SSE stream, and run the surface
# table's tenant rows on both tiers and the in-process tier suites
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
# gate grant order, same latencies, the same request count per replica under
# each placement policy) for one scripted arrival sequence.
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
# the latency predictors must hold Table 2's share within ±10 %, and
# nascli's printed tables must match their goldens byte for byte
# (TestReproCheckPrintedTables), including trainer_epoch1: one epoch of
# `nascli trainer` at scale 600, which prints its training report and
# nothing else while no deployment flag is set. Whatever bends the
# reproduction — accuracy model, cost model, export size — fails here by
# name.
REPRO_RUN  = ReproCheck
REPRO_PKGS = ./internal/core ./internal/latmeter ./cmd/nascli
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
	check '$(SBENCH_HOP)' ./cmd/servd && \
	check '$(SBENCH_SERVE)' ./internal/serve && \
	check '$(SBENCH_SCAN)' ./internal/scan

# Short fuzz smoke runs: the container decoder and the runtime loader must
# reject arbitrary input without panicking (and a small plan the loader
# accepts must quantize and run a forward at both precisions, failing with
# an error or not at all), the int8 quantizer must
# round-trip arbitrary (value, scale) pairs within its saturation bounds,
# the predict-body scanner must agree with encoding/json on arbitrary bytes
# (same accept/reject, same values, bit-exact floats), the serving-trace
# decoder must reject or round-trip whatever it is fed, the trial-journal
# reader must report a bad tail where cutting the input leaves a clean
# journal and round-trip every entry it recovers, every tenant key file
# the parser accepts must hold its name/key/weight invariants and round-trip,
# every scan request the scan handler would admit must ask for a tile,
# chip, stride and grid inside the synthesis bounds and round-trip, the
# slot gate must grant what the reference stride scheduler grants for any
# operation sequence the fuzz bytes decode to, the bulk normal fill must
# return the NormFloat64 loop's bits and final generator state for any seed,
# pending spare and length, and the separable max pool must return the
# tap-by-tap pool's bits (NaN for NaN) for any plane size, window, stride,
# padding and float32 or int8 bit patterns, at one worker and at five for
# int8, and its backward must route every gradient where a first-maximum
# argmax does (ties and all-padding windows included), and the scan event stream
# reader must end any byte stream in io.EOF or an error without panicking
# and read back unchanged every event it decoded once json.Encoder has
# written it again, as the scan handler writes its stream, and the Winograd
# convolution must land within its stated bound of the direct one, never
# panic, and give a non-finite output wherever the direct one does, for any
# channel counts from 1 to 24, map from 1x1 to 17x17, batch of 1 to 3, ReLU
# and residual join on or off, and float32 bit patterns, and the int8
# convolution must equal its integer reference byte for byte at one worker
# and at five, and its AVX2 pack, requantize epilogue, quantizer and
# residual add their Go loops, for any batch of 1 to 3, channel counts from
# 1 to 24, map from 1x1 to 20x20, kernel 1, 3 or 7, stride 1 or 2, padding
# up to 3, ReLU on or off, and float32 bit patterns for the values and
# scales, and the scan event stream's ?from= resume parser must accept
# exactly what strconv.Atoi reads as an int >= 0 (and the empty string, as
# 0), with that value.
#
# Each target prints how many inputs it ran, and minimizes a new input in
# one run: Go's default, up to 60 s per input, spent a 5 s -fuzztime
# shrinking inputs instead of running new ones (on a 2-core Xeon, from an
# empty cache, FuzzDecode ran 15 inputs and FuzzLoad 285; 52,544 and
# 47,510 at 1x). A failing input is saved as found; rerun its target with
# go test and a longer -fuzzminimizetime to shrink it.
fuzz:
	@fuzz() { out=$$($(GO) test -run='^$$' -fuzz="$$1" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x "$$2" 2>&1) || { \
		printf '%s\n' "$$out"; return 1; }; \
		execs=$$(printf '%s\n' "$$out" | sed -n 's/.*execs: \([0-9]*\).*/\1/p' | tail -n 1); \
		echo "fuzz $$1 $$2: $${execs:-0} execs in $(FUZZTIME)"; }; \
	fuzz 'FuzzDecode$$' ./internal/onnxsize && \
	fuzz FuzzDecodeRoundTrip ./internal/onnxsize && \
	fuzz FuzzLoad ./internal/infer && \
	fuzz FuzzQuantizeRoundTrip ./internal/tensor && \
	fuzz FuzzReadPredict ./internal/api && \
	fuzz FuzzTraceDecode ./internal/sim && \
	fuzz FuzzReadJournal ./internal/nas && \
	fuzz FuzzParseKeyFile ./internal/tenant && \
	fuzz FuzzScanRequest ./internal/api && \
	fuzz FuzzGate ./internal/sched && \
	fuzz FuzzNormFloat64s ./internal/tensor && \
	fuzz FuzzMaxPoolPlane ./internal/tensor && \
	fuzz FuzzScanEventStream ./internal/api && \
	fuzz FuzzWinogradConv ./internal/tensor && \
	fuzz FuzzQuantizedConv ./internal/tensor && \
	fuzz FuzzScanEventsFrom ./internal/scan

# Kernel benchmark selections: the micro-kernel alone, the deployed model's
# convolution shapes with its stage entries, projections and the PaperSpace
# stems (front32 at 5x100x100, batch 1 and 8; fp32 and, in the /int8
# rows, int8), its max pool (fp32 and int8,
# batch 1 and 8), the convolutions' backward (at 32x32 batch 16, what NAS
# trains, and 100x100 batch 8), the conv ablation, the training step
# without and with the stem max pool (with allocs/op), one surrogate-sweep trial measurement (core.Measure over the
# enumerated PaperSpace, with allocs/op), the whole 1,717-trial surrogate
# sweep (core.Run: NAS phase, measurement on every core, Pareto front), the
# watershed synthesis a scan's
# first tile waits on (Nebraska 640², with allocs/op), corpus synthesis
# (GenerateCorpus at nas_search's 32-px chips and at 100-px chips, Table 1
# ÷ 400, with allocs/op), a million normal
# deviates in bulk beside the per-element NormFloat64 loop, building the two
# stock ResNet-18 variants (weight init, what every NAS fold pays first), and
# the compiled-inference path on a 32x32 chip and at the deployment size.
KBENCH_TENSOR = ^(BenchmarkGEMMKernelOnly|BenchmarkConvPlanShapes|BenchmarkMaxPoolPlane|BenchmarkConvBackwardShapes|BenchmarkNormFloat64s)$$
KBENCH_ROOT   = ^(BenchmarkAblation_ConvParallelism|BenchmarkTrainingStep|BenchmarkTrainingStepPooled|BenchmarkSweepMeasure|BenchmarkTable3_ObjectiveRanges|BenchmarkWatershedSynthesis|BenchmarkCorpusSynthesis|BenchmarkFigure1_ModelBuild)$$
SBENCH_API    = ^(BenchmarkReadPredictJSON|BenchmarkReadPredictB64|BenchmarkReadPredictStdlib)$$
SBENCH_TIER   = ^BenchmarkTierWrapNoop$$
SBENCH_HOP    = ^BenchmarkHTTPReplicaLoopback$$
SBENCH_SERVE  = ^BenchmarkSubmitLone$$
SBENCH_SCAN   = ^BenchmarkScanFirstTile$$
IBENCH        = ^(BenchmarkCompiledBatch1|BenchmarkQuantizedBatch1|BenchmarkCompiledBatch8|BenchmarkQuantizedBatch8|BenchmarkFront32(FP32|Int8)Batch(1|4|8)|BenchmarkStock(FP32|Int8)Batch1|BenchmarkFront32Ops|BenchmarkColdLoad)$$

# Appends one run record (ns/op + GFLOP/s per shape, plus machine/kernel
# metadata) to the checked-in BENCH_kernels.json trajectory; KERNEL_NOTE is
# stored with the run and names the change it measures. It reaches the
# recipe through the environment, so quotes in the note are data, not shell
# syntax.
KERNEL_NOTE ?=
export KERNEL_NOTE
bench-kernels:
	{ $(GO) test -run='^$$' -bench '$(KBENCH_TENSOR)' ./internal/tensor && \
	  $(GO) test -run='^$$' -bench '$(KBENCH_ROOT)' . ; } \
	  | $(GO) run ./cmd/benchjson -out BENCH_kernels.json -note "$$KERNEL_NOTE"

# Compiled-plan inference trajectory: fp32 and int8 forwards at batch 1 and
# batch 8, with -benchmem so allocs/op and B/op land in the record (the
# arena claim is "steady-state allocs ≈ 0"), front32 at 5x100x100, fp32
# and int8, batch 1/4/8, in ms per sample, the stock ResNet-18 at the same
# size, fp32 and int8 at batch 1, and front32's fp32 forward op by op
# (ms per forward per kind of op, batch 1 and 8; the Winograd convs under
# kinds of their own). INFER_NOTE is stored with the run, as KERNEL_NOTE
# is with bench-kernels, and reaches the recipe through the environment the
# same way.
INFER_NOTE ?=
export INFER_NOTE
bench-infer:
	$(GO) test -run='^$$' -bench '$(IBENCH)' -benchmem ./internal/infer \
	  | $(GO) run ./cmd/benchjson -out BENCH_infer.json -note "$$INFER_NOTE"

# Request-path ladder, one rung per serving layer with the model stubbed
# out: predict-body decode (the single-pass scanner on a JSON number array
# and on data_b64, beside the encoding/json decode it replaced), the tenant
# tier around a no-op handler, the router→servd hop over loopback, and a
# lone request through the batcher at its defaults over a plan too small to
# cost anything; then eight whole scan
# jobs in process with the real model (time to first tile, tiles/s after
# it).
# SERVE_NOTE is stored with the run and says what each timed region holds.
SERVE_NOTE = ReadPredict*: body bytes in memory -> api.PredictRequest (read + decode; not Tensor(), no socket), \
Stdlib = the json.Decoder decode both handlers ran before. TierWrapNoop: Tier.Wrap end to end (auth, quota, \
ReadPredict, idle fair gate, audit line, stats) around an empty handler. HTTPReplicaLoopback/hop: HTTPReplica.Submit \
(PredictFromTensor + api.Client.Predict: json.Marshal + POST over kept-alive loopback) + frontend.New over servd: access log, ReadPredict, Tensor(), \
serve.Submit at max-batch 1 on a width-1 ResNet, answer encode + decode; /stub is that serve.Submit alone. Chips are 5xSxS. \
SubmitLone: one serve.Submit at a time at default Options (batch 8, 2 ms MaxDelay) on a hand-built 1x1-conv + global pool + 2x2 FC plan over a 3x4x4 chip; queued_ms = mean Response.Queued. \
ScanFirstTile: one scan.Run job (Nebraska 640, chip 100, stride 36, window 16, hilbert; synthesis included) over serve.Server \
defaults on front32 fp32; first_tile_ms = Run start -> first tile event, tiles_per_s over the tiles after it.
bench-serve:
	{ $(GO) test -run='^$$' -bench '$(SBENCH_API)' -benchmem ./internal/api && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_TIER)' -benchmem ./internal/tenant && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_HOP)' -benchmem ./cmd/servd && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_SERVE)' -benchmem ./internal/serve && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_SCAN)' -benchtime=8x -benchmem ./internal/scan ; } \
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
	  $(GO) test -run='^$$' -bench '$(SBENCH_HOP)' -benchtime=1x -benchmem ./cmd/servd && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_SERVE)' -benchtime=1x -benchmem ./internal/serve && \
	  $(GO) test -run='^$$' -bench '$(SBENCH_SCAN)' -benchtime=1x -benchmem ./internal/scan ; } \
	  | $(GO) run ./cmd/benchjson -out .bench_smoke.json -note ci-smoke
	rm -f .bench_smoke.json
