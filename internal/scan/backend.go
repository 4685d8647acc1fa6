package scan

import (
	"context"
	"errors"
	"math"
	"time"

	"drainnas/internal/latmeter"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// Result is one classified chip, backend-agnostic.
type Result struct {
	Class     int
	Logits    []float32
	BatchSize int
	Replica   string
}

// Backend classifies one chip tensor under a serving key. Implementations
// must be safe for concurrent use — the runner keeps a window of tiles in
// flight.
type Backend interface {
	Classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error)
}

// ServerBackend scans through an in-process batching server (servd's local
// mode: tiles ride the same micro-batching queue as predict traffic).
type ServerBackend struct{ S *serve.Server }

// Classify submits one chip to the batcher.
func (b ServerBackend) Classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
	resp, err := b.S.Submit(ctx, model, input)
	if err != nil {
		return Result{}, err
	}
	return Result{Class: resp.Class, Logits: resp.Logits, BatchSize: resp.BatchSize}, nil
}

// RouterBackend scans through the cluster routing tier under an SLO class
// (batch is the natural class for a bulk scan).
type RouterBackend struct {
	R     *route.Router
	Class route.SLOClass
}

// Classify submits one chip to the fleet.
func (b RouterBackend) Classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
	resp, err := b.R.SubmitClass(ctx, b.Class, model, input)
	if err != nil {
		return Result{}, err
	}
	return Result{Class: resp.Class, Logits: resp.Logits, BatchSize: resp.BatchSize, Replica: resp.Replica}, nil
}

// SimBackend is a latmeter-simulated replica: per-tile latency comes from
// the device's analytical service model and classification from a
// deterministic heuristic, so the whole pipeline (window, ordering, retry,
// heat map) can be exercised without trained containers or a live fleet.
type SimBackend struct {
	// Service is the device's batch-1 service model (Device.Service(graph)).
	Service latmeter.ServiceModel
	// Replica labels tile events (e.g. the device name).
	Replica string
	// SleepScale scales the modeled latency into real sleep time; 0 skips
	// sleeping (tests), 1 replays the device in real time.
	SleepScale float64
}

// Classify sleeps out the modeled latency and scores the chip heuristically.
func (b SimBackend) Classify(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
	if b.SleepScale > 0 {
		d := time.Duration(b.Service.BatchMS(1) * b.SleepScale * float64(time.Millisecond))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	score := HeuristicScore(input)
	class := 0
	if score >= 0.5 {
		class = 1
	}
	// Logits that softmax back to the heuristic score, so the runner's
	// score path is identical across backends.
	eps := 1e-6
	return Result{
		Class:     class,
		Logits:    []float32{float32(math.Log(1 - score + eps)), float32(math.Log(score + eps))},
		BatchSize: 1,
		Replica:   b.Replica,
	}, nil
}

// HeuristicScore estimates the crossing probability of a chip without a
// trained model: a drainage crossing stamps a carved channel through a
// raised road embankment, so a crossing chip contains strongly-high and
// strongly-low DEM cells in contact. The score scales the fraction of high
// cells with a low cell in their 5×5 neighborhood. Deterministic in the
// chip bytes.
func HeuristicScore(x *tensor.Tensor) float64 {
	shape := x.Shape()
	s := shape[len(shape)-1]
	dem := x.Data()[:s*s]

	var sum, ss float64
	for _, v := range dem {
		sum += float64(v)
	}
	mean := sum / float64(len(dem))
	for _, v := range dem {
		d := float64(v) - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(dem)))
	if std < 1e-9 {
		return 0
	}

	hi := make([]bool, s*s)
	lo := make([]bool, s*s)
	for i, v := range dem {
		d := float64(v) - mean
		hi[i] = d > 0.8*std
		lo[i] = d < -0.8*std
	}
	touches := 0
	for y := 0; y < s; y++ {
		for x0 := 0; x0 < s; x0++ {
			if !hi[y*s+x0] {
				continue
			}
			found := false
			for dy := -2; dy <= 2 && !found; dy++ {
				for dx := -2; dx <= 2; dx++ {
					nx, ny := x0+dx, y+dy
					if nx >= 0 && nx < s && ny >= 0 && ny < s && lo[ny*s+nx] {
						found = true
						break
					}
				}
			}
			if found {
				touches++
			}
		}
	}
	score := 30 * float64(touches) / float64(s*s)
	if score > 0.99 {
		score = 0.99
	}
	return score
}

// retryable reports whether a tile's serving error is worth retrying
// against the same backend: the transient capacity rejections, which every
// backend reports as serve or route sentinels (route.HTTPReplica maps a
// remote replica's queue_full onto serve.ErrQueueFull). Context expiry and
// input or lookup errors are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, serve.ErrQueueFull) || errors.Is(err, route.ErrThrottled) || errors.Is(err, route.ErrNoReplicas)
}

// fatalErr reports an error that dooms every remaining tile (the model is
// gone or the tier is shutting down), so the job aborts instead of burning
// retries tile by tile.
func fatalErr(err error) bool {
	return errors.Is(err, serve.ErrModelNotFound) || errors.Is(err, serve.ErrClosed) || errors.Is(err, route.ErrClosed)
}
