package metrics

import "sync/atomic"

// KernelStats counts what the float tensor kernels actually did: which GEMM
// path ran, how many output tiles the tiled kernel ran, how often a
// prepacked weight panel was reused instead of rebuilt, and how the scratch
// pools behaved. The counters are lock-free (one atomic add per layer call
// or pool round-trip, never per tile or element) so the hot loops can
// afford them, and they give /v1/stats a direct view of whether serving
// traffic is hitting the fast path. The int8 convolution driver reports
// only its scratch requests; its multiplies are not in these counts.
type KernelStats struct {
	gemmCalls       atomic.Uint64
	naiveCalls      atomic.Uint64
	tilesDispatched atomic.Uint64
	packsReused     atomic.Uint64
	scratchHits     atomic.Uint64
	scratchMisses   atomic.Uint64
}

// Kernel is the process-wide sink the tensor package reports into.
var Kernel KernelStats

// GemmCall records one multiply on the tiled kernel. A convolution is one
// multiply per layer per batch — every output pixel of every sample is a
// column of the same GEMM — so for a compiled plan this counts tiled layers
// executed, not samples. MatMul and the backward pass count
// one per call as before.
func (k *KernelStats) GemmCall() { k.gemmCalls.Add(1) }

// NaiveCall records one multiply that stayed on the naive kernel (below the
// serial cutoff). A convolution layer too small to tile runs it sample by
// sample, so it counts one per sample there.
func (k *KernelStats) NaiveCall() { k.naiveCalls.Add(1) }

// TilesDispatched records n micro-tiles run by the micro-kernel: for a
// convolution, the weight pack's row tiles times the column panels of the
// whole batch, each run once.
func (k *KernelStats) TilesDispatched(n int) { k.tilesDispatched.Add(uint64(n)) }

// PackReused records a tiled multiply that found its weight panels already
// packed: every call of a compiled plan's convolution after the first, and
// samples 2..N of one backward pass.
func (k *KernelStats) PackReused() { k.packsReused.Add(1) }

// ScratchHit records a scratch-pool request served from a pooled buffer.
func (k *KernelStats) ScratchHit() { k.scratchHits.Add(1) }

// ScratchMiss records a scratch-pool request that had to allocate.
func (k *KernelStats) ScratchMiss() { k.scratchMisses.Add(1) }

// KernelSnapshot is a point-in-time copy of the kernel counters.
type KernelSnapshot struct {
	GemmCalls       uint64 `json:"gemm_calls" prom:"drainnas_kernel_gemm_calls_total" help:"Multiplies run on the tiled kernel: one per tiled float convolution layer per batch, one per other tiled matmul."`
	NaiveCalls      uint64 `json:"naive_calls" prom:"drainnas_kernel_naive_calls_total" help:"Multiplies kept on the naive kernel: one per sample of a float convolution layer too small to tile, one per other small matmul."`
	TilesDispatched uint64 `json:"tiles_dispatched" prom:"drainnas_kernel_tiles_dispatched_total" help:"Micro-tiles run by the float micro-kernel: weight row tiles times column panels."`
	PacksReused     uint64 `json:"packs_reused" prom:"drainnas_kernel_packs_reused_total" help:"Tiled multiplies that found their weight panels already packed."`
	ScratchHits     uint64 `json:"scratch_hits" prom:"drainnas_kernel_scratch_hits_total" help:"Scratch-pool requests served from a pooled buffer."`
	ScratchMisses   uint64 `json:"scratch_misses" prom:"drainnas_kernel_scratch_misses_total" help:"Scratch-pool requests that had to allocate."`
}

// Snapshot returns a copy of the counters. Values are read individually
// (not under a common lock); each is exact, the set is approximately
// simultaneous, which is what a stats endpoint needs.
func (k *KernelStats) Snapshot() KernelSnapshot {
	return KernelSnapshot{
		GemmCalls:       k.gemmCalls.Load(),
		NaiveCalls:      k.naiveCalls.Load(),
		TilesDispatched: k.tilesDispatched.Load(),
		PacksReused:     k.packsReused.Load(),
		ScratchHits:     k.scratchHits.Load(),
		ScratchMisses:   k.scratchMisses.Load(),
	}
}
