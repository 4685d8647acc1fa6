package metrics

import (
	"fmt"
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

	accepted  uint64
	rejected  uint64
	canceled  uint64
	failed    uint64
	completed uint64

	batches      uint64
	batchSizeSum uint64
	maxBatch     int

	queueDepth    int
	maxQueueDepth int

	queueWaitSum time.Duration
	latencySum   time.Duration
	latencyMax   time.Duration
	execSum      time.Duration

	queueWait Histogram
	latency   Histogram
	exec      Histogram

	perModel map[string]*modelStats
}

type modelStats struct {
	accepted  uint64
	canceled  uint64
	failed    uint64
	completed uint64
	latency   Histogram
}

// modelLocked returns the per-model sink for name, creating it under the
// tracking cap; the caller holds s.mu.
func (s *ServingStats) modelLocked(name string) *modelStats {
	return tracked(&s.perModel, maxTrackedModels, name)
}

// Enqueued records an admitted request for model entering the queue.
func (s *ServingStats) Enqueued(model string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.accepted++
	s.queueDepth++
	if s.queueDepth > s.maxQueueDepth {
		s.maxQueueDepth = s.queueDepth
	}
	s.modelLocked(model).accepted++
	s.mu.Unlock()
}

// Rejected records a request refused by the bounded queue.
func (s *ServingStats) Rejected(model string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// Canceled records an enqueued request whose caller gave up (context
// cancellation) before a batch claimed it.
func (s *ServingStats) Canceled(model string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.canceled++
	s.queueDepth--
	s.modelLocked(model).canceled++
	s.mu.Unlock()
}

// Failed records an enqueued request that ended in an execution or model
// load error.
func (s *ServingStats) Failed(model string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.failed++
	s.queueDepth--
	s.modelLocked(model).failed++
	s.mu.Unlock()
}

// Completed records one successfully served request: how long it sat in the
// queue before its batch started, and its total latency from admission to
// response.
func (s *ServingStats) Completed(model string, queueWait, total time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.completed++
	s.queueDepth--
	s.queueWaitSum += queueWait
	s.latencySum += total
	if total > s.latencyMax {
		s.latencyMax = total
	}
	s.queueWait.Observe(queueWait)
	s.latency.Observe(total)
	m := s.modelLocked(model)
	m.completed++
	m.latency.Observe(total)
	s.mu.Unlock()
}

// BatchDone records one executed batch: its size (requests actually run)
// and the forward-pass duration.
func (s *ServingStats) BatchDone(model string, size int, exec time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.batches++
	s.batchSizeSum += uint64(size)
	if size > s.maxBatch {
		s.maxBatch = size
	}
	s.execSum += exec
	s.exec.Observe(exec)
	s.mu.Unlock()
}

// ModelServingSnapshot is the per-model slice of a serving snapshot.
type ModelServingSnapshot struct {
	Accepted  uint64            `json:"accepted"`
	Canceled  uint64            `json:"canceled"`
	Failed    uint64            `json:"failed"`
	Completed uint64            `json:"completed"`
	Latency   HistogramSnapshot `json:"latency"`
}

// ServingSnapshot is a point-in-time copy of the counters, with the derived
// means and latency-distribution summaries a dashboard wants.
type ServingSnapshot struct {
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Canceled  uint64 `json:"canceled"`
	Failed    uint64 `json:"failed"`
	Completed uint64 `json:"completed"`

	Batches   uint64  `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`

	QueueDepth    int `json:"queue_depth"`
	MaxQueueDepth int `json:"max_queue_depth"`

	MeanQueueWaitMS float64 `json:"mean_queue_wait_ms"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	MaxLatencyMS    float64 `json:"max_latency_ms"`
	MeanExecMS      float64 `json:"mean_exec_ms"`

	QueueWait HistogramSnapshot `json:"queue_wait"`
	Latency   HistogramSnapshot `json:"latency"`
	Exec      HistogramSnapshot `json:"exec"`

	PerModel map[string]ModelServingSnapshot `json:"per_model,omitempty"`
}

// Snapshot returns a consistent copy of the counters.
func (s *ServingStats) Snapshot() ServingSnapshot {
	if s == nil {
		return ServingSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ServingSnapshot{
		Accepted:      s.accepted,
		Rejected:      s.rejected,
		Canceled:      s.canceled,
		Failed:        s.failed,
		Completed:     s.completed,
		Batches:       s.batches,
		MaxBatch:      s.maxBatch,
		QueueDepth:    s.queueDepth,
		MaxQueueDepth: s.maxQueueDepth,
		MaxLatencyMS:  ms(s.latencyMax),
		QueueWait:     s.queueWait.Snapshot(),
		Latency:       s.latency.Snapshot(),
		Exec:          s.exec.Snapshot(),
	}
	if s.batches > 0 {
		snap.MeanBatch = float64(s.batchSizeSum) / float64(s.batches)
		snap.MeanExecMS = ms(s.execSum) / float64(s.batches)
	}
	if s.completed > 0 {
		snap.MeanQueueWaitMS = ms(s.queueWaitSum) / float64(s.completed)
		snap.MeanLatencyMS = ms(s.latencySum) / float64(s.completed)
	}
	if len(s.perModel) > 0 {
		snap.PerModel = make(map[string]ModelServingSnapshot, len(s.perModel))
		for name, m := range s.perModel {
			snap.PerModel[name] = ModelServingSnapshot{
				Accepted:  m.accepted,
				Canceled:  m.canceled,
				Failed:    m.failed,
				Completed: m.completed,
				Latency:   m.latency.Snapshot(),
			}
		}
	}
	return snap
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// String renders the snapshot on one line.
func (s ServingSnapshot) String() string {
	return fmt.Sprintf(
		"acc=%d rej=%d can=%d fail=%d done=%d batches=%d meanBatch=%.2f depth=%d/%d lat=%.2f/%.2f/%.2fms",
		s.Accepted, s.Rejected, s.Canceled, s.Failed, s.Completed,
		s.Batches, s.MeanBatch, s.QueueDepth, s.MaxQueueDepth,
		s.Latency.P50MS, s.Latency.P99MS, s.MaxLatencyMS)
}
