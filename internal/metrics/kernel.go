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
	GemmCalls       uint64 `json:"gemm_calls"`
	NaiveCalls      uint64 `json:"naive_calls"`
	TilesDispatched uint64 `json:"tiles_dispatched"`
	PacksReused     uint64 `json:"packs_reused"`
	ScratchHits     uint64 `json:"scratch_hits"`
	ScratchMisses   uint64 `json:"scratch_misses"`
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

// Reset zeroes all counters (test support).
func (k *KernelStats) Reset() {
	k.gemmCalls.Store(0)
	k.naiveCalls.Store(0)
	k.tilesDispatched.Store(0)
	k.packsReused.Store(0)
	k.scratchHits.Store(0)
	k.scratchMisses.Store(0)
}
