package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/infer"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// Replica is one serving backend the router can dispatch to — the
// transport-agnostic extraction of serve.Server's submit surface, so an
// in-process batching server and a remote servd instance are
// interchangeable behind one routing tier.
//
// Contract: Submit must honor ctx cancellation promptly — hedging relies on
// canceling the losing attempt, and a Submit that ignores its context turns
// every hedge into a leaked goroutine. InFlight must be cheap (it is read
// on every least-loaded pick); it reports the replica's
// admitted-but-unfinished request count.
type Replica interface {
	ID() string
	InFlight() int64
	Submit(ctx context.Context, model string, input *tensor.Tensor) (serve.Response, error)
}

// LocalReplica adapts an in-process serve.Server to the Replica interface.
type LocalReplica struct {
	id  string
	srv *serve.Server
}

// NewLocalReplica wraps srv under the given replica ID.
func NewLocalReplica(id string, srv *serve.Server) *LocalReplica {
	return &LocalReplica{id: id, srv: srv}
}

// ID implements Replica.
func (r *LocalReplica) ID() string { return r.id }

// InFlight implements Replica via the server's lock-free load counter.
func (r *LocalReplica) InFlight() int64 { return r.srv.Load() }

// Submit implements Replica.
func (r *LocalReplica) Submit(ctx context.Context, model string, input *tensor.Tensor) (serve.Response, error) {
	return r.srv.Submit(ctx, model, input)
}

// Server returns the wrapped server (for lifecycle and stats endpoints).
func (r *LocalReplica) Server() *serve.Server { return r.srv }

// HTTPReplica fans a request out to a remote servd instance over its
// /v1/predict endpoint, translating the shared error envelope back into the
// typed errors local submission would return — so the router's policy,
// hedging and error-mapping logic cannot tell local and remote replicas
// apart. In-flight load is tracked router-side (the remote's own queue
// depth is not consulted per pick; one atomic counter per replica is).
type HTTPReplica struct {
	id       string
	base     string
	client   *http.Client
	inflight atomic.Int64
}

// NewHTTPReplica builds a replica proxying to baseURL (e.g.
// "http://10.0.0.3:8080"); a nil client uses http.DefaultClient. The
// replica ID defaults to the base URL when id is empty.
func NewHTTPReplica(id, baseURL string, client *http.Client) *HTTPReplica {
	if id == "" {
		id = baseURL
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPReplica{id: id, base: baseURL, client: client}
}

// ID implements Replica.
func (r *HTTPReplica) ID() string { return r.id }

// InFlight implements Replica.
func (r *HTTPReplica) InFlight() int64 { return r.inflight.Load() }

// Submit implements Replica. The chip travels as data_b64 (raw
// little-endian float32, not decimal text), and the serving key is rebuilt
// from the replica's model and precision echo, so what a remote replica
// ran is what the router reports.
func (r *HTTPReplica) Submit(ctx context.Context, model string, input *tensor.Tensor) (serve.Response, error) {
	preq, err := api.PredictFromTensor(model, "", input)
	if err != nil {
		return serve.Response{}, err
	}
	body, err := json.Marshal(preq)
	if err != nil {
		return serve.Response{}, fmt.Errorf("route: encoding predict request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, err
	}
	req.Header.Set("Content-Type", "application/json")

	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return serve.Response{}, ctx.Err()
		}
		return serve.Response{}, fmt.Errorf("route: replica %s: %w", r.id, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return serve.Response{}, fmt.Errorf("route: replica %s: status %d", r.id, resp.StatusCode)
		}
		return serve.Response{}, replicaError(r.id, resp.StatusCode, env.Error)
	}
	var pr api.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return serve.Response{}, fmt.Errorf("route: replica %s: decoding response: %w", r.id, err)
	}
	return serve.Response{
		Model:     infer.ModelKey(pr.Model, infer.Precision(pr.Precision)),
		Class:     pr.Class,
		Logits:    pr.Logits,
		BatchSize: pr.BatchSize,
		Queued:    time.Duration(pr.QueuedMS * float64(time.Millisecond)),
		Total:     time.Duration(pr.TotalMS * float64(time.Millisecond)),
	}, nil
}

// replicaError maps a remote error envelope back onto the typed sentinels
// local submission produces, so the router (and its clients) get identical
// error semantics from both transports.
func replicaError(id string, status int, body api.ErrorBody) error {
	base := fmt.Errorf("route: replica %s: %s (%s)", id, body.Message, body.Code)
	switch body.Code {
	case api.CodeQueueFull:
		return errors.Join(serve.ErrQueueFull, base)
	case api.CodeModelNotFound:
		return errors.Join(serve.ErrModelNotFound, base)
	case api.CodeShuttingDown:
		return errors.Join(serve.ErrClosed, base)
	default:
		return base
	}
}
