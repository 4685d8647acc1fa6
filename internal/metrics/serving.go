package metrics

import (
	"sync"
	"time"
)

// maxTrackedModels bounds the per-model breakdown: a client can submit
// arbitrary model names (each failing with not-found), and an unbounded map
// keyed by attacker-chosen strings is exactly the leak the serving layer
// just fixed. Models beyond the cap aggregate under OverflowModelKey.
const maxTrackedModels = 32

// OverflowModelKey is the per-model bucket absorbing traffic once
// maxTrackedModels distinct model names have been seen.
const OverflowModelKey = OverflowKey

// ServingStats aggregates request-level counters for the inference serving
// layer: admission outcomes, queue depth, batch shape and latency — the
// latter as streaming histograms (queue-wait, exec, end-to-end) so tail
// percentiles are visible, globally and per model. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver so
// instrumentation points need no nil checks.
//
// The lifecycle feeding these counters is: Enqueued on admission, then
// exactly one of Canceled (the waiter gave up before execution), Failed
// (model load or execution error) or Completed; Rejected counts requests
// the bounded queue refused outright.
type ServingStats struct {
	mu sync.Mutex
	// c is the snapshot's counters; Snapshot fills in everything else.
	c            ServingSnapshot
	batchSizeSum uint64

	queueWait, exec, latency Histogram

	perModel map[string]*modelServing
}

// modelServing is one model's counters with the live histogram behind
// their Latency.
type modelServing struct {
	ModelServingSnapshot
	latency Histogram
}

func (m *modelServing) snapshot() ModelServingSnapshot {
	snap := m.ModelServingSnapshot
	snap.Latency = m.latency.Snapshot()
	return snap
}

// locked runs f under the lock; a nil sink runs nothing.
func (s *ServingStats) locked(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// model returns the per-model sink for name, creating it under the
// tracking cap; the caller holds s.mu.
func (s *ServingStats) model(name string) *modelServing {
	return tracked(&s.perModel, maxTrackedModels, name)
}

// Enqueued records an admitted request for model entering the queue.
func (s *ServingStats) Enqueued(model string) {
	s.locked(func() {
		s.c.Accepted++
		s.c.QueueDepth++
		s.c.MaxQueueDepth = max(s.c.MaxQueueDepth, s.c.QueueDepth)
		s.model(model).Accepted++
	})
}

// Rejected records a request refused by the bounded queue.
func (s *ServingStats) Rejected(model string) {
	s.locked(func() { s.c.Rejected++ })
}

// Canceled records an enqueued request whose caller gave up (context
// cancellation) before a batch claimed it.
func (s *ServingStats) Canceled(model string) {
	s.locked(func() {
		s.c.Canceled++
		s.c.QueueDepth--
		s.model(model).Canceled++
	})
}

// Failed records an enqueued request that ended in an execution or model
// load error.
func (s *ServingStats) Failed(model string) {
	s.locked(func() {
		s.c.Failed++
		s.c.QueueDepth--
		s.model(model).Failed++
	})
}

// Completed records one successfully served request: how long it sat in the
// queue before its batch started, and its total latency from admission to
// response.
func (s *ServingStats) Completed(model string, queueWait, total time.Duration) {
	s.locked(func() {
		s.c.Completed++
		s.c.QueueDepth--
		s.queueWait.Observe(queueWait)
		s.latency.Observe(total)
		m := s.model(model)
		m.Completed++
		m.latency.Observe(total)
	})
}

// BatchDone records one executed batch: its size (requests actually run)
// and the forward-pass duration.
func (s *ServingStats) BatchDone(model string, size int, exec time.Duration) {
	s.locked(func() {
		s.c.Batches++
		s.batchSizeSum += uint64(size)
		s.c.MaxBatch = max(s.c.MaxBatch, size)
		s.exec.Observe(exec)
	})
}

// ModelServingSnapshot is the per-model slice of a serving snapshot.
type ModelServingSnapshot struct {
	Accepted  uint64            `json:"accepted" prom:"drainnas_serving_model_requests_total,outcome=accepted" help:"Per-model requests by outcome."`
	Canceled  uint64            `json:"canceled" prom:"drainnas_serving_model_requests_total,outcome=canceled"`
	Failed    uint64            `json:"failed" prom:"drainnas_serving_model_requests_total,outcome=failed"`
	Completed uint64            `json:"completed" prom:"drainnas_serving_model_requests_total,outcome=completed"`
	Latency   HistogramSnapshot `json:"latency" prom:"drainnas_serving_model_latency_seconds" help:"Per-model end-to-end latency."`
}

// ServingSnapshot is a point-in-time copy of the counters, with the derived
// means and latency-distribution summaries a dashboard wants. The mean_*_ms
// and max_latency_ms fields restate their histogram for JSON readers and
// are not exported again as series.
type ServingSnapshot struct {
	Accepted  uint64 `json:"accepted" prom:"drainnas_serving_requests_total,outcome=accepted" help:"Requests by admission/lifecycle outcome."`
	Rejected  uint64 `json:"rejected" prom:"drainnas_serving_requests_total,outcome=rejected"`
	Canceled  uint64 `json:"canceled" prom:"drainnas_serving_requests_total,outcome=canceled"`
	Failed    uint64 `json:"failed" prom:"drainnas_serving_requests_total,outcome=failed"`
	Completed uint64 `json:"completed" prom:"drainnas_serving_requests_total,outcome=completed"`

	Batches   uint64  `json:"batches" prom:"drainnas_serving_batches_total" help:"Executed batches."`
	MeanBatch float64 `json:"mean_batch" prom:"drainnas_serving_batch_mean" help:"Mean executed batch size."`
	MaxBatch  int     `json:"max_batch" prom:"drainnas_serving_batch_max" help:"Largest executed batch."`

	QueueDepth    int `json:"queue_depth" prom:"drainnas_serving_queue_depth" help:"Admitted-but-unfinished requests."`
	MaxQueueDepth int `json:"max_queue_depth" prom:"drainnas_serving_queue_depth_max" help:"High-water mark of the admission queue."`

	MeanQueueWaitMS float64 `json:"mean_queue_wait_ms"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	MaxLatencyMS    float64 `json:"max_latency_ms"`
	MeanExecMS      float64 `json:"mean_exec_ms"`

	QueueWait HistogramSnapshot `json:"queue_wait" prom:"drainnas_serving_queue_wait_seconds" help:"Time from admission to batch start."`
	Exec      HistogramSnapshot `json:"exec" prom:"drainnas_serving_exec_seconds" help:"Batch forward-pass duration."`
	Latency   HistogramSnapshot `json:"latency" prom:"drainnas_serving_latency_seconds" help:"End-to-end request latency (admission to response)." quantiles:"drainnas_serving_latency_quantile_seconds" qhelp:"End-to-end latency quantiles from the streaming histogram."`

	PerModel map[string]ModelServingSnapshot `json:"per_model,omitempty" label:"model"`
}

// Snapshot returns a consistent copy of the counters.
func (s *ServingStats) Snapshot() (snap ServingSnapshot) {
	s.locked(func() {
		snap = s.c
		snap.QueueWait, snap.Exec, snap.Latency = s.queueWait.Snapshot(), s.exec.Snapshot(), s.latency.Snapshot()
		if snap.Batches > 0 {
			snap.MeanBatch = float64(s.batchSizeSum) / float64(snap.Batches)
		}
		// Every Completed observes queueWait and latency, every BatchDone
		// exec, so the histograms' sums and counts are the totals.
		snap.MeanQueueWaitMS, snap.MeanExecMS = snap.QueueWait.MeanMS, snap.Exec.MeanMS
		snap.MeanLatencyMS, snap.MaxLatencyMS = snap.Latency.MeanMS, snap.Latency.MaxMS
		snap.PerModel = copyMap(s.perModel, (*modelServing).snapshot)
	})
	return snap
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
