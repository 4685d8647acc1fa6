package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/route"
	"drainnas/internal/serve"
	"drainnas/internal/tenant"
	"drainnas/internal/tensor"
)

// mirror is the in-process assembly of the layers a predict request crosses
// in the real router→servd pair, made only of their public functions, with
// a span at every boundary:
//
//	request
//	└ tenant_wait   tenant.Tier.Wrap
//	  └ router      the router's handler body (as cmd/router assembles it)
//	    ├ decode
//	    ├ gate_wait route.Router.SubmitClass
//	    │ └ replica route.HTTPReplica.Submit over a real loopback socket
//	    │   └ servd the servd handler body (as cmd/servd assembles it)
//	    │     ├ decode
//	    │     ├ replica_queue ┐ serve.Server.Submit, split by
//	    │     ├ exec          ┘ Response.Queued
//	    │     └ encode
//	    └ encode
//
// The two handler bodies live in package main of their binaries, so they
// are restated here call for call; the front hop (generator → router
// socket) is the one part of the real path the mirror leaves out.
type mirror struct {
	r       *predictRun
	tr      *tracer
	srv     *serve.Server
	backend *httptest.Server
	router  *route.Router
	client  *http.Client
	front   http.Handler
	logOut  io.Writer
}

func newMirror(r *predictRun) (*mirror, error) {
	m := &mirror{r: r, tr: newTracer(), logOut: log.Writer()}
	// The tenant tier writes one audit line per request with the standard
	// logger, as it does in the router (whose stderr the benchmark drains).
	log.SetOutput(io.Discard)

	m.srv = serve.NewServer(serve.DirLoader(r.modelDir), serve.Options{})
	m.backend = httptest.NewServer(http.HandlerFunc(m.servdPredict))
	m.client = &http.Client{Transport: spanTransport{base: &http.Transport{MaxIdleConnsPerHost: tenantInflight}}}
	opts := route.Options{}
	if r.w.closed {
		opts.Sched, opts.MaxInFlight = route.Priority, closedClients()
	}
	m.router = route.New(opts, tracedReplica{tr: m.tr, inner: route.NewHTTPReplica("", m.backend.URL, m.client)})
	tier, err := tenant.LoadTier(r.keyFile, time.Hour, tenantInflight, "bench")
	if err != nil {
		m.close()
		return nil, fmt.Errorf("bench: mirror tenant tier: %w", err)
	}
	wrapped := tier.Wrap(http.HandlerFunc(m.routerPredict))
	m.front = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, sp := m.tr.start(req.Context(), spanTenant)
		defer sp.end()
		wrapped.ServeHTTP(w, req.WithContext(ctx))
	})

	// Load, quantise and pack through this process's own server before
	// the traced phase, as the real pair was warmed.
	ctx := context.Background()
	for v := range r.variants {
		o := op{chip: v % len(r.chips), variant: v}
		status, body, err := m.send(ctx, 0, o)
		if err == nil {
			err = m.check(o, status, body)
		}
		if err != nil {
			m.close()
			return nil, fmt.Errorf("bench: mirror warm-up: %w", err)
		}
	}
	m.tr.reset() // drop the warm-up's spans
	return m, nil
}

func (m *mirror) close() {
	m.router.Close()
	m.backend.Close()
	m.client.CloseIdleConnections()
	m.srv.Close()
	log.SetOutput(m.logOut)
}

func (m *mirror) send(ctx context.Context, _ int, o op) (int, []byte, error) {
	v := m.r.variants[o.variant]
	body, n := v.body(m.r.chips[o.chip])
	ctx, root := m.tr.start(ctx, spanRequest)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", body).WithContext(ctx)
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+v.tenant.key)
	rec := httptest.NewRecorder()
	m.front.ServeHTTP(rec, req)
	root.end()
	return rec.Code, rec.Body.Bytes(), nil
}

func (m *mirror) check(o op, status int, body []byte) error { return m.r.check(o, status, body) }

// decodePredict is the decode stage both front ends run: body → request
// struct → validated tensor → serving key.
func (m *mirror) decodePredict(ctx context.Context, w http.ResponseWriter, r *http.Request) (req api.PredictRequest, input *tensor.Tensor, key string, err error) {
	_, sp := m.tr.start(ctx, spanDecode)
	defer sp.end()
	if err = json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxPredictBodyBytes)).Decode(&req); err != nil {
		return
	}
	if input, err = req.Tensor(); err != nil {
		return
	}
	key, err = req.ResolveKey()
	return
}

func (m *mirror) encodePredict(ctx context.Context, w http.ResponseWriter, resp serve.Response, replica string) {
	_, sp := m.tr.start(ctx, spanEncode)
	defer sp.end()
	model, precision := api.SplitServedModel(resp.Model)
	httpx.WriteJSON(w, http.StatusOK, api.PredictResponse{
		Model: model, Precision: precision, Class: resp.Class, Logits: resp.Logits,
		BatchSize: resp.BatchSize, Replica: replica,
		QueuedMS: ms(resp.Queued), TotalMS: ms(resp.Total),
	})
}

// routerPredict restates cmd/router's /v1/predict handler.
func (m *mirror) routerPredict(w http.ResponseWriter, r *http.Request) {
	ctx, sp := m.tr.start(r.Context(), spanRouterAPI)
	defer sp.end()
	req, input, key, err := m.decodePredict(ctx, w, r)
	var class route.SLOClass
	if err == nil {
		class, err = route.ParseClass(req.SLO)
	}
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}
	gctx, gate := m.tr.start(ctx, spanGate)
	resp, err := m.router.SubmitClass(gctx, class, key, input)
	gate.end()
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	m.encodePredict(ctx, w, resp.Response, resp.Replica)
}

// servdPredict restates cmd/servd's /v1/predict handler.
func (m *mirror) servdPredict(w http.ResponseWriter, r *http.Request) {
	ctx, sp := m.tr.startUnder(r.Context(), spanFromHeader(r), spanServdAPI)
	defer sp.end()
	_, input, key, err := m.decodePredict(ctx, w, r)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}
	t0 := m.tr.now()
	resp, err := m.srv.Submit(ctx, key, input)
	t1 := m.tr.now()
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	m.tr.record(ctx, spanQueue, t0, t0+resp.Queued)
	m.tr.record(ctx, spanExec, t0+resp.Queued, t1)
	m.encodePredict(ctx, w, resp, "")
}

// tracedReplica is the bench-owned route.Replica around the HTTP adapter.
type tracedReplica struct {
	tr    *tracer
	inner *route.HTTPReplica
}

func (t tracedReplica) ID() string      { return t.inner.ID() }
func (t tracedReplica) InFlight() int64 { return t.inner.InFlight() }

func (t tracedReplica) Submit(ctx context.Context, model string, input *tensor.Tensor) (serve.Response, error) {
	ctx, sp := t.tr.start(ctx, spanReplica)
	defer sp.end()
	return t.inner.Submit(ctx, model, input)
}
