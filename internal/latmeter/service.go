package latmeter

// ServiceModel is the two-coefficient summary of one model's execution cost
// on a device, in the form the serving simulator consumes: a stacked
// batch-n forward costs PerBatchMS + n·PerItemMS. Per-kernel dispatch
// overhead is paid once per batch while the arithmetic scales with the
// stacked size — exactly the amortization serve.Server's micro-batching
// buys, so the split is what lets the simulator predict how batch formation
// trades latency for throughput.
type ServiceModel struct {
	// PerItemMS is the work (compute/memory) portion of the batch-1
	// prediction, already scaled by the graph's precision CostScale.
	PerItemMS float64 `json:"per_item_ms"`
	// PerBatchMS is the summed per-kernel dispatch overhead, paid once per
	// stacked forward regardless of batch size.
	PerBatchMS float64 `json:"per_batch_ms"`
}

// Service decomposes the graph's batch-1 latency prediction on the device
// into the per-item and per-batch coefficients: ServiceModel.BatchMS(1)
// equals Device.LatencyMS(g) to within rounding (splitting off the overhead
// and adding it back can move the last bit).
func (d Device) Service(g Graph) ServiceModel {
	overhead := d.OverheadUS / 1e3 * float64(len(g.Kernels))
	work := d.LatencyMS(g) - overhead
	if work < 0 {
		work = 0
	}
	return ServiceModel{PerItemMS: work, PerBatchMS: overhead}
}

// BatchMS predicts the service time of one stacked batch of n requests in
// milliseconds. n below 1 is treated as 1.
func (m ServiceModel) BatchMS(n int) float64 {
	if n < 1 {
		n = 1
	}
	return m.PerBatchMS + float64(n)*m.PerItemMS
}

// Scaled returns the model with its work and overhead coefficients scaled —
// the two knobs the calibration loop in internal/sim fits against measured
// /v1/stats histograms. Non-positive scales mean 1.
func (m ServiceModel) Scaled(work, overhead float64) ServiceModel {
	if work <= 0 {
		work = 1
	}
	if overhead <= 0 {
		overhead = 1
	}
	return ServiceModel{PerItemMS: m.PerItemMS * work, PerBatchMS: m.PerBatchMS * overhead}
}
