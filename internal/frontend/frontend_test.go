package frontend

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/route"
	"drainnas/internal/serve"
)

// TestErrorTable walks every sentinel a tier's Submit can return — bare,
// wrapped, and joined the way route.HTTPReplica folds a remote envelope
// back — through the one classification, and holds what is written to
// api.KnownCodes: the status is the registry's, and exactly the 429s carry
// Retry-After. The surface table (internal/fronttest) reaches most of
// these over HTTP; canceled and internal it cannot provoke.
func TestErrorTable(t *testing.T) {
	live := context.Background()
	gone, cancel := context.WithCancel(live)
	cancel()
	for _, tc := range []struct {
		ctx  context.Context
		err  error
		want string
	}{
		{live, route.ErrThrottled, api.CodeThrottled},
		{live, route.ErrNoReplicas, api.CodeNoReplicas},
		{live, route.ErrClosed, api.CodeShuttingDown},
		{live, serve.ErrClosed, api.CodeShuttingDown},
		{live, fmt.Errorf("replica local-0: %w", serve.ErrQueueFull), api.CodeQueueFull},
		{live, errors.Join(serve.ErrModelNotFound, errors.New("route: replica r: no such model (model_not_found)")), api.CodeModelNotFound},
		{gone, fmt.Errorf("serve: waiting for batch: %w", gone.Err()), api.CodeCanceled},
		// The same error under a live context is not the client's doing.
		{live, context.Canceled, api.CodeInternal},
		{live, errors.New("plan: shape mismatch"), api.CodeInternal},
	} {
		code := errorCode(tc.ctx, tc.err)
		if code != tc.want {
			t.Errorf("%v -> %q, want %q", tc.err, code, tc.want)
		}
		rec := httptest.NewRecorder()
		fail(rec, code, tc.err.Error())
		if rec.Code != api.KnownCodes[code] {
			t.Errorf("%q written under %d, api.KnownCodes pins %d", code, rec.Code, api.KnownCodes[code])
		}
		if got, want := rec.Header().Get("Retry-After") != "", rec.Code == http.StatusTooManyRequests; got != want {
			t.Errorf("%q (%d): Retry-After present = %v", code, rec.Code, got)
		}
	}
}
