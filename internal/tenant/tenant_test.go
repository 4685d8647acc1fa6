package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drainnas/internal/route/routetest"
)

func writeKeyFile(t testing.TB, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoTenants = `{"tenants": [
	{"name": "acme", "key": "acme-secret-key", "weight": 3, "rate_rps": 5, "burst": 10},
	{"name": "beta", "key": "beta-secret-key"}
]}`

func TestParseKeyFile(t *testing.T) {
	tenants, err := ParseKeyFile([]byte(twoTenants))
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(tenants))
	}
	acme, beta := tenants[0], tenants[1]
	if acme.Name != "acme" || acme.Weight != 3 || acme.Rate != 5 || acme.Burst != 10 {
		t.Fatalf("acme %+v", acme)
	}
	// Defaults: weight 1, no rate limit.
	if beta.Weight != 1 || beta.Rate != 0 {
		t.Fatalf("beta defaults %+v", beta)
	}

	bad := []struct {
		name, body, wantErr string
	}{
		{"garbage", "{", "parsing"},
		{"empty", `{"tenants": []}`, "no tenants"},
		{"unnamed", `{"tenants": [{"key": "long-enough-key"}]}`, "no name"},
		{"dup name", `{"tenants": [{"name":"a","key":"key-one-xx"},{"name":"a","key":"key-two-xx"}]}`, "duplicate"},
		{"short key", `{"tenants": [{"name":"a","key":"short"}]}`, "shorter"},
		{"dup key", `{"tenants": [{"name":"a","key":"same-key-here"},{"name":"b","key":"same-key-here"}]}`, "duplicates"},
		{"negative weight", `{"tenants": [{"name":"a","key":"long-enough-key","weight":-1}]}`, "negative weight"},
	}
	for _, tc := range bad {
		if _, err := ParseKeyFile([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// A rate-limited tenant written without a burst can still send: its
	// first request is admitted, its second finds the bucket dry.
	dir := t.TempDir()
	auth, err := LoadAuthenticator(writeKeyFile(t, dir, `{"tenants": [{"name":"a","key":"long-enough-key","rate_rps":0.001,"burst":0}]}`), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(TierOptions{Auth: auth, Clock: routetest.NewFakeClock()})
	if a := auth.Tenants()[0]; !tier.Allow(a) || tier.Allow(a) {
		t.Fatal("burst 0 tenant: want the first request admitted and the second refused")
	}
}

func TestAuthenticate(t *testing.T) {
	path := writeKeyFile(t, t.TempDir(), twoTenants)
	auth, err := LoadAuthenticator(path, time.Minute, routetest.NewFakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if tn, ok := auth.Authenticate("acme-secret-key"); !ok || tn.Name != "acme" {
		t.Fatalf("acme key resolved to (%+v, %v)", tn, ok)
	}
	if tn, ok := auth.Authenticate("beta-secret-key"); !ok || tn.Name != "beta" {
		t.Fatalf("beta key resolved to (%+v, %v)", tn, ok)
	}
	for _, bad := range []string{"", "wrong", "acme-secret-key2", "acme-secret-ke"} {
		if _, ok := auth.Authenticate(bad); ok {
			t.Fatalf("key %q accepted", bad)
		}
	}
	if n := auth.TenantCount(); n != 2 {
		t.Fatalf("tenant count %d", n)
	}
}

func TestAuthenticatorHotReload(t *testing.T) {
	clock := routetest.NewFakeClock()
	dir := t.TempDir()
	path := writeKeyFile(t, dir, twoTenants)
	auth, err := LoadAuthenticator(path, time.Minute, clock)
	if err != nil {
		t.Fatal(err)
	}

	// Rotate acme's key on disk. Before the recheck interval elapses the
	// old key still works; after it, the new set is live.
	rotated := strings.Replace(twoTenants, "acme-secret-key", "acme-rotated-key", 1)
	writeKeyFile(t, dir, rotated)
	bumpMtime(t, path)

	if _, ok := auth.Authenticate("acme-secret-key"); !ok {
		t.Fatal("old key rejected before the recheck interval elapsed")
	}
	clock.Advance(2 * time.Minute)
	if _, ok := auth.Authenticate("acme-rotated-key"); !ok {
		t.Fatal("rotated key not live after recheck interval")
	}
	if _, ok := auth.Authenticate("acme-secret-key"); ok {
		t.Fatal("stale key still accepted after reload")
	}
}

func TestAuthenticatorKeepsOldSetOnBadReload(t *testing.T) {
	clock := routetest.NewFakeClock()
	dir := t.TempDir()
	path := writeKeyFile(t, dir, twoTenants)
	auth, err := LoadAuthenticator(path, time.Minute, clock)
	if err != nil {
		t.Fatal(err)
	}
	writeKeyFile(t, dir, "{not json")
	bumpMtime(t, path)
	clock.Advance(2 * time.Minute)
	if _, ok := auth.Authenticate("acme-secret-key"); !ok {
		t.Fatal("a bad key-file edit locked everyone out instead of keeping the old set")
	}
	if auth.TenantCount() != 2 {
		t.Fatalf("tenant count %d after failed reload, want 2", auth.TenantCount())
	}
}

// bumpMtime pushes the file's mtime forward so a rewrite within the
// filesystem's timestamp granularity still registers as a change.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	future := info.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAuthenticatorErrors(t *testing.T) {
	if _, err := LoadAuthenticator(filepath.Join(t.TempDir(), "missing.json"), 0, nil); err == nil {
		t.Fatal("missing key file accepted")
	}
	path := writeKeyFile(t, t.TempDir(), "[]")
	if _, err := LoadAuthenticator(path, 0, nil); err == nil {
		t.Fatal("invalid key file accepted")
	}
}
