// Package tenant is the multi-tenant edge tier in front of the serving
// stack: API-key authentication from a hot-reloadable key file, per-tenant
// token-bucket quotas, and weighted-fair queue admission so a noisy tenant
// cannot starve the others. It composes as HTTP middleware over the
// existing servd/router muxes (Tier.Wrap), reusing the shared envelope in
// internal/httpx (codes unauthorized and quota_exceeded), the token bucket,
// SLO classes and blocking slot gate in internal/route (the gate the router
// dispatches through, run here with one stride-scheduled flow per tenant),
// and the capped per-tenant counters in internal/metrics. A small live
// dashboard (Server-Sent Events) streams queue depth, batch shapes and
// per-tenant latency.
//
// The admission pipeline per request:
//
//	API key (Authorization: Bearer …, or X-API-Key)
//	  → Authenticator (constant-time compare, hot reload)
//	  → per-tenant route.TokenBucket (quota_exceeded beyond rate/burst)
//	  → route.Gate (stride scheduling across tenants by weight;
//	    SLO-class priority within a tenant)
//	  → the wrapped handler (servd/router /v1/predict)
//
// Every authenticated request leaves one structured audit log line.
package tenant

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"drainnas/internal/route"
)

// Tenant is one authenticated principal: its identity, its share of the
// fleet under contention (Weight), and its token-bucket quota (Rate
// requests/second, Burst capacity; Rate <= 0 means unlimited).
type Tenant struct {
	Name   string  `json:"name"`
	Key    string  `json:"key"`
	Weight float64 `json:"weight"`
	Rate   float64 `json:"rate_rps"`
	Burst  float64 `json:"burst"`
}

// keyFile is the on-disk shape of the key file.
type keyFile struct {
	Tenants []Tenant `json:"tenants"`
}

// minKeyLen rejects trivially guessable keys at load time rather than
// letting an operator ship them.
const minKeyLen = 8

// ParseKeyFile decodes and validates a key file: unique non-empty tenant
// names, unique keys of at least minKeyLen bytes, and positive weights
// (defaulted to 1) whose stride 1/weight is finite. A burst below 1 is
// left as written: sched.NewBucket raises it when the tenant's bucket is
// built.
func ParseKeyFile(data []byte) ([]Tenant, error) {
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, fmt.Errorf("tenant: parsing key file: %w", err)
	}
	if len(kf.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: key file declares no tenants")
	}
	names := make(map[string]bool, len(kf.Tenants))
	keys := make(map[string]bool, len(kf.Tenants))
	out := make([]Tenant, 0, len(kf.Tenants))
	for i, tn := range kf.Tenants {
		if tn.Name == "" {
			return nil, fmt.Errorf("tenant: entry %d has no name", i)
		}
		if names[tn.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", tn.Name)
		}
		names[tn.Name] = true
		if len(tn.Key) < minKeyLen {
			return nil, fmt.Errorf("tenant: %s: key shorter than %d bytes", tn.Name, minKeyLen)
		}
		if keys[tn.Key] {
			return nil, fmt.Errorf("tenant: key of %q duplicates another tenant's", tn.Name)
		}
		keys[tn.Key] = true
		if tn.Weight < 0 {
			return nil, fmt.Errorf("tenant: %s: negative weight %v", tn.Name, tn.Weight)
		}
		if tn.Weight == 0 {
			tn.Weight = 1
		}
		if math.IsInf(1/tn.Weight, 0) {
			// The fair gate charges a grant 1/weight: an infinite stride
			// would drag the gate's virtual time to +Inf and every tenant's
			// pass with it, leaving grants in arrival order.
			return nil, fmt.Errorf("tenant: %s: weight %v too small (1/weight overflows)", tn.Name, tn.Weight)
		}
		out = append(out, tn)
	}
	return out, nil
}

// authEntry pairs a key digest with its tenant. Keys are compared as
// SHA-256 digests so every comparison runs over the same fixed width
// regardless of presented-key length.
type authEntry struct {
	digest [sha256.Size]byte
	tenant Tenant
}

// Authenticator resolves API keys to tenants with constant-time comparison
// and hot reload: the key file is re-checked (by mtime and size) at most
// once per recheck interval, so rotating keys or adjusting a tenant's
// weight/quota needs no restart. A reload that fails to parse keeps the
// previous tenant set and logs, so a bad edit degrades to stale keys rather
// than an outage.
type Authenticator struct {
	path    string
	recheck time.Duration
	clock   route.Clock

	mu        sync.RWMutex
	entries   []authEntry
	mtime     time.Time
	size      int64
	nextCheck time.Time
}

// LoadAuthenticator reads and validates the key file at path. recheck
// throttles hot-reload stat calls (at most one per interval; <= 0 restats
// on every authentication, which tests use for determinism). clock defaults
// to route.SystemClock.
func LoadAuthenticator(path string, recheck time.Duration, clock route.Clock) (*Authenticator, error) {
	if clock == nil {
		clock = route.SystemClock
	}
	a := &Authenticator{path: path, recheck: recheck, clock: clock}
	if err := a.Reload(); err != nil {
		return nil, err
	}
	return a, nil
}

// Reload re-reads the key file unconditionally, replacing the tenant set on
// success and keeping it on failure.
func (a *Authenticator) Reload() error {
	info, err := os.Stat(a.path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	data, err := os.ReadFile(a.path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	tenants, err := ParseKeyFile(data)
	if err != nil {
		return err
	}
	entries := make([]authEntry, len(tenants))
	for i, tn := range tenants {
		entries[i] = authEntry{digest: sha256.Sum256([]byte(tn.Key)), tenant: tn}
	}
	a.mu.Lock()
	a.entries = entries
	a.mtime = info.ModTime()
	a.size = info.Size()
	a.nextCheck = a.clock.Now().Add(a.recheck)
	a.mu.Unlock()
	return nil
}

// maybeReload stats the key file when the recheck interval has elapsed and
// reloads on an mtime or size change.
func (a *Authenticator) maybeReload() {
	now := a.clock.Now()
	a.mu.RLock()
	due := !now.Before(a.nextCheck)
	mtime, size := a.mtime, a.size
	a.mu.RUnlock()
	if !due {
		return
	}
	// Push the next check out immediately so concurrent requests do not
	// stampede the filesystem; the reload itself re-arms it too.
	a.mu.Lock()
	a.nextCheck = now.Add(a.recheck)
	a.mu.Unlock()
	info, err := os.Stat(a.path)
	if err != nil {
		log.Printf("tenant: key file stat failed, keeping %d loaded tenants: %v", a.TenantCount(), err)
		return
	}
	if info.ModTime().Equal(mtime) && info.Size() == size {
		return
	}
	if err := a.Reload(); err != nil {
		log.Printf("tenant: key file reload failed, keeping previous tenants: %v", err)
		return
	}
	log.Printf("tenant: key file reloaded (%d tenants)", a.TenantCount())
}

// Authenticate resolves a presented API key to its tenant. The comparison
// is constant-time in the candidate set: the presented key is hashed once,
// every loaded entry's digest is compared with subtle.ConstantTimeCompare,
// and the loop never exits early — timing reveals neither which tenant
// matched nor how close a guess came.
func (a *Authenticator) Authenticate(key string) (Tenant, bool) {
	a.maybeReload()
	if key == "" {
		return Tenant{}, false
	}
	digest := sha256.Sum256([]byte(key))
	a.mu.RLock()
	defer a.mu.RUnlock()
	match := -1
	for i := range a.entries {
		eq := subtle.ConstantTimeCompare(digest[:], a.entries[i].digest[:])
		// ConstantTimeSelect keeps the loop body branch-free on the secret
		// comparison result. Duplicate keys are rejected at load, so at most
		// one entry ever matches.
		match = subtle.ConstantTimeSelect(eq, i, match)
	}
	if match < 0 {
		return Tenant{}, false
	}
	return a.entries[match].tenant, true
}

// Tenants returns a copy of the loaded tenant set (for startup logging and
// bucket provisioning).
func (a *Authenticator) Tenants() []Tenant {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Tenant, len(a.entries))
	for i, e := range a.entries {
		out[i] = e.tenant
	}
	return out
}

// TenantCount reports how many tenants are loaded.
func (a *Authenticator) TenantCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.entries)
}
