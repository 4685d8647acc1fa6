package tenant

import (
	"context"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/httpx"
	"drainnas/internal/metrics"
	"drainnas/internal/route"
)

// Tier is the assembled edge middleware: Authenticator → per-tenant
// route.TokenBucket → FairQueue → wrapped handler, with per-tenant metrics
// and one structured audit line per authenticated (or rejected) request.
type Tier struct {
	auth    *Authenticator
	fair    *FairQueue
	stats   *metrics.TenantStats
	clock   route.Clock
	service string

	mu      sync.Mutex
	buckets map[string]*bucketEntry
}

// bucketEntry caches a tenant's token bucket alongside the rate/burst it
// was built with, so a key-file reload that changes the quota rebuilds the
// bucket while an unrelated reload keeps accumulated state.
type bucketEntry struct {
	rate, burst float64
	tb          *route.TokenBucket
}

// TierOptions configures NewTier.
type TierOptions struct {
	// Auth is required; NewTier panics without it (an edge tier with no
	// authenticator is a configuration bug, not a runtime condition).
	Auth *Authenticator
	// Inflight is the weighted-fair gate's concurrent dispatch slots;
	// <= 0 disables fair queueing (auth + quota only).
	Inflight int
	// Stats receives per-tenant counters; nil discards them.
	Stats *metrics.TenantStats
	// Clock defaults to route.SystemClock; tests inject a fake.
	Clock route.Clock
	// Service tags audit lines ("servd", "router").
	Service string
}

// NewTier builds the edge tier.
func NewTier(opts TierOptions) *Tier {
	if opts.Auth == nil {
		panic("tenant: NewTier requires an Authenticator")
	}
	clock := opts.Clock
	if clock == nil {
		clock = route.SystemClock
	}
	service := opts.Service
	if service == "" {
		service = "tenant"
	}
	return &Tier{
		auth:    opts.Auth,
		fair:    NewFairQueue(opts.Inflight),
		stats:   opts.Stats,
		clock:   clock,
		service: service,
		buckets: make(map[string]*bucketEntry),
	}
}

// LoadTier is the front ends' one-call constructor: key file in, assembled
// tier (with its own metrics sink) out.
func LoadTier(path string, recheck time.Duration, inflight int, service string) (*Tier, error) {
	auth, err := LoadAuthenticator(path, recheck, nil)
	if err != nil {
		return nil, err
	}
	return NewTier(TierOptions{
		Auth:     auth,
		Inflight: inflight,
		Stats:    &metrics.TenantStats{},
		Service:  service,
	}), nil
}

// Fair exposes the fair gate for stats/dashboard snapshots. Nil-safe (both
// a nil Tier and a disabled gate return nil, and FairQueue methods accept
// nil) so the front ends need no guards when the tier is off.
func (t *Tier) Fair() *FairQueue {
	if t == nil {
		return nil
	}
	return t.fair
}

// Stats exposes the tier's metrics sink; nil-safe like Fair.
func (t *Tier) Stats() *metrics.TenantStats {
	if t == nil {
		return nil
	}
	return t.stats
}

// TenantCount reports the loaded tenant set's size (0 for a nil tier).
func (t *Tier) TenantCount() int {
	if t == nil {
		return 0
	}
	return t.auth.TenantCount()
}

// APIKey extracts the presented credential: "Authorization: Bearer <key>"
// wins, then the X-API-Key header. Empty means none presented.
func APIKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return r.Header.Get("X-API-Key")
}

// Authenticate resolves the request's API key against the tier's key set.
func (t *Tier) Authenticate(r *http.Request) (Tenant, bool) {
	return t.auth.Authenticate(APIKey(r))
}

// tenantCtxKey carries the authenticated tenant through the request
// context so inner handlers (and the dashboard) can attribute work.
type tenantCtxKey struct{}

// FromContext returns the tenant the edge tier authenticated, if any.
func FromContext(ctx context.Context) (Tenant, bool) {
	tn, ok := ctx.Value(tenantCtxKey{}).(Tenant)
	return tn, ok
}

// Allow debits one request token from tn's bucket, reporting whether the
// tenant is under quota (always true for unlimited tenants and a nil
// tier). This is the admission hook for bulk consumers outside the HTTP
// pipeline — a whole-watershed scan debits one token per tile it
// dispatches, so a scan job is quota-accounted like the equivalent predict
// stream rather than as a single request.
func (t *Tier) Allow(tn Tenant) bool {
	if t == nil {
		return true
	}
	if tb := t.bucketFor(tn); tb != nil {
		return tb.Allow()
	}
	return true
}

// bucketFor returns the tenant's token bucket, rebuilding it when a reload
// changed the quota. A nil bucket means the tenant is unlimited.
func (t *Tier) bucketFor(tn Tenant) *route.TokenBucket {
	if tn.Rate <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	be := t.buckets[tn.Name]
	if be == nil || be.rate != tn.Rate || be.burst != tn.Burst {
		be = &bucketEntry{rate: tn.Rate, burst: tn.Burst, tb: route.NewTokenBucket(tn.Rate, tn.Burst, t.clock)}
		t.buckets[tn.Name] = be
	}
	return be.tb
}

// requestClass returns the SLO class r's predict body asks for, and the
// request to hand to the wrapped handler: api.ReadPredict decodes the body
// here, once, and the handler's own ReadPredict gets the same value back
// (a handler that reads r.Body instead finds the original bytes). A body
// that does not decode, or names no known class, queues as standard; the
// handler reports what is wrong with it.
func requestClass(r *http.Request) (route.SLOClass, *http.Request) {
	if r.Body == nil || r.Method != http.MethodPost {
		return route.ClassStandard, r
	}
	req, r, err := api.ReadPredict(r)
	if err != nil {
		return route.ClassStandard, r
	}
	class, err := route.ParseClass(req.SLO)
	if err != nil {
		return route.ClassStandard, r
	}
	return class, r
}

// audit writes the structured per-request audit line. decision is one of
// deny_auth, deny_quota, admit.
func (t *Tier) audit(r *http.Request, w http.ResponseWriter, tenantName, decision string, status int) {
	log.Printf("%s: audit id=%s tenant=%s decision=%s method=%s path=%s status=%d",
		t.service, w.Header().Get("X-Request-ID"), tenantName, decision, r.Method, r.URL.Path, status)
}

// Wrap applies the full admission pipeline in front of h. Unauthorized
// requests get 401/unauthorized, quota violations 429/quota_exceeded (with
// Retry-After: 1), and admitted requests wait their weighted-fair turn
// before reaching h.
func (t *Tier) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn, ok := t.Authenticate(r)
		if !ok {
			t.stats.Unauthorized()
			t.audit(r, w, "-", "deny_auth", http.StatusUnauthorized)
			httpx.Error(w, http.StatusUnauthorized, api.CodeUnauthorized,
				"missing or unknown API key (use Authorization: Bearer <key> or X-API-Key)")
			return
		}
		if tb := t.bucketFor(tn); tb != nil && !tb.Allow() {
			t.stats.QuotaExceeded(tn.Name)
			t.audit(r, w, tn.Name, "deny_quota", http.StatusTooManyRequests)
			w.Header().Set("Retry-After", "1")
			httpx.Error(w, http.StatusTooManyRequests, api.CodeQuotaExceeded,
				"tenant "+tn.Name+" is over its request quota")
			return
		}
		t.stats.Admitted(tn.Name)

		// The body is read and decoded before the clock starts: that time
		// is the request's own, not a wait behind other tenants.
		class, r := requestClass(r)
		start := t.clock.Now()
		if err := t.fair.Acquire(r.Context(), tn.Name, tn.Weight, class); err != nil {
			wait := t.clock.Now().Sub(start)
			t.stats.Failed(tn.Name, wait, wait)
			t.audit(r, w, tn.Name, "admit", http.StatusServiceUnavailable)
			httpx.Error(w, http.StatusServiceUnavailable, api.CodeCanceled,
				"request canceled while queued for admission")
			return
		}
		wait := t.clock.Now().Sub(start)

		rec := httpx.NewStatusRecorder(w)
		func() {
			defer t.fair.Release()
			h.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn)))
		}()

		total := t.clock.Now().Sub(start)
		if rec.Status < 400 {
			t.stats.Completed(tn.Name, wait, total)
		} else {
			t.stats.Failed(tn.Name, wait, total)
		}
		t.audit(r, w, tn.Name, "admit", rec.Status)
	})
}
