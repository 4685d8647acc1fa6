package scan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/geodata"
	"drainnas/internal/httpx"
	"drainnas/internal/tenant"
)

// maxScanBodyBytes bounds the POST /v1/scan request body: a scan request
// is a page of JSON, not a tensor.
const maxScanBodyBytes = 1 << 20

// tileQuotaRetry is how long a quota-limited scan waits between per-tile
// token attempts — the scan slows to the tenant's sustained rate instead
// of failing tiles.
const tileQuotaRetry = 50 * time.Millisecond

// BackendFactory builds the serving backend for one scan request; the
// router tier parses the request's SLO class here. A returned error is a
// client error (400 bad_input).
type BackendFactory func(req api.ScanRequest) (Backend, error)

// Register mounts the scan-job API on mux:
//
//	POST   /v1/scan             start a job (202 + job document)
//	GET    /v1/scan/{id}        poll the job document
//	GET    /v1/scan/{id}/events NDJSON event stream, ?from=<seq> resumes
//	DELETE /v1/scan/{id}        cancel (in-flight tiles drain first)
//
// When edge is non-nil the POST runs through the full admission pipeline
// (auth → quota → weighted-fair) and each dispatched tile debits one
// quota token; the read and cancel routes require a valid key and hide
// other tenants' jobs.
func Register(mux *http.ServeMux, m *Manager, edge *tenant.Tier, backend BackendFactory) {
	start := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleStart(w, r, m, edge, backend)
	}))
	if edge != nil {
		start = edge.Wrap(start)
	}
	mux.Handle("POST /v1/scan", start)
	mux.HandleFunc("GET /v1/scan/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := lookup(w, r, m, edge)
		if !ok {
			return
		}
		httpx.WriteJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("DELETE /v1/scan/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := lookup(w, r, m, edge)
		if !ok {
			return
		}
		j.Cancel()
		httpx.WriteJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/scan/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(w, r, m, edge)
	})
}

func handleStart(w http.ResponseWriter, r *http.Request, m *Manager, edge *tenant.Tier, backend BackendFactory) {
	r.Body = http.MaxBytesReader(w, r.Body, maxScanBodyBytes)
	var req api.ScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, "bad scan request: "+err.Error())
		return
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}
	if _, ok := geodata.RegionByName(req.Region); !ok {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput,
			fmt.Sprintf("unknown region %q", req.Region))
		return
	}
	key, err := api.ResolveServingKey(req.Model, req.Precision)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}
	be, err := backend(req)
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}

	opts := StartOptions{Backend: be, Model: key}
	if tn, ok := tenant.FromContext(r.Context()); ok {
		opts.Tenant = tn.Name
		if edge != nil && tn.Rate > 0 {
			opts.Admit = func(ctx context.Context) error {
				for !edge.Allow(tn) {
					select {
					case <-time.After(tileQuotaRetry):
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				return nil
			}
		}
	}
	j, err := m.Start(req, opts)
	if err != nil {
		if errors.Is(err, ErrLimit) {
			w.Header().Set("Retry-After", "5")
			httpx.Error(w, http.StatusTooManyRequests, api.CodeScanLimit, err.Error())
			return
		}
		httpx.Error(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// lookup resolves {id} with the tier's auth and tenant-visibility rules.
// On failure the error envelope has already been written.
func lookup(w http.ResponseWriter, r *http.Request, m *Manager, edge *tenant.Tier) (*Job, bool) {
	var tn tenant.Tenant
	if edge != nil {
		var ok bool
		if tn, ok = edge.Authenticate(r); !ok {
			httpx.Error(w, http.StatusUnauthorized, api.CodeUnauthorized,
				"missing or unknown API key (use Authorization: Bearer <key> or X-API-Key)")
			return nil, false
		}
	}
	id := r.PathValue("id")
	j, ok := m.Get(id)
	if ok && edge != nil {
		// A tenant sees only its own jobs; unattributed jobs stay visible.
		if owner := j.Snapshot().Tenant; owner != "" && owner != tn.Name {
			ok = false
		}
	}
	if !ok {
		httpx.Error(w, http.StatusNotFound, api.CodeScanNotFound,
			fmt.Sprintf("%v: %q", ErrNotFound, id))
		return nil, false
	}
	return j, true
}

// parseFrom reads the event stream's ?from= resume offset: absent or empty
// is 0, anything else must be a non-negative decimal integer.
func parseFrom(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad from=%q: want a non-negative integer", s)
	}
	return n, nil
}

func handleEvents(w http.ResponseWriter, r *http.Request, m *Manager, edge *tenant.Tier) {
	j, ok := lookup(w, r, m, edge)
	if !ok {
		return
	}
	from, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		httpx.Error(w, http.StatusBadRequest, api.CodeBadInput, err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpx.Error(w, http.StatusInternalServerError, api.CodeInternal,
			"response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// Errors here mean the client went away; the job keeps running.
	_ = j.Follow(r.Context(), from, func(ev api.ScanEvent) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	})
}
