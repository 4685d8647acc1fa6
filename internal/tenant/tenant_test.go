package tenant

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// badKeyFiles are key files ParseKeyFile must reject, each with a
// substring of the error it must give.
var badKeyFiles = []struct {
	name, body, wantErr string
}{
	{"garbage", "{", "parsing"},
	{"empty", `{"tenants": []}`, "no tenants"},
	{"unnamed", `{"tenants": [{"key": "long-enough-key"}]}`, "no name"},
	{"dup name", `{"tenants": [{"name":"a","key":"key-one-xx"},{"name":"a","key":"key-two-xx"}]}`, "duplicate"},
	{"short key", `{"tenants": [{"name":"a","key":"short"}]}`, "shorter"},
	{"dup key", `{"tenants": [{"name":"a","key":"same-key-here"},{"name":"b","key":"same-key-here"}]}`, "duplicates"},
	{"negative weight", `{"tenants": [{"name":"a","key":"long-enough-key","weight":-1}]}`, "negative weight"},
	{"infinite stride", `{"tenants": [{"name":"tiny","key":"long-enough-key","weight":1e-320}]}`, "tiny: weight 1e-320 too small"},
}

const burstlessTenant = `{"tenants": [{"name":"a","key":"long-enough-key","rate_rps":0.001,"burst":0}]}`

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

	for _, tc := range badKeyFiles {
		if _, err := ParseKeyFile([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// A rate-limited tenant written without a burst can still send: its
	// first request is admitted, its second finds the bucket dry.
	dir := t.TempDir()
	auth, err := LoadAuthenticator(writeKeyFile(t, dir, burstlessTenant), time.Minute, nil)
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

// FuzzParseKeyFile feeds the key-file parser arbitrary bytes: it must never
// panic, every file it accepts must hold the invariants authentication
// relies on (non-empty unique names, unique keys of at least minKeyLen
// bytes, positive weights whose stride 1/weight the fair gate charges is
// finite), and writing the accepted tenants back out must parse to the
// same tenants.
func FuzzParseKeyFile(f *testing.F) {
	for _, seed := range []string{twoTenants, quotaTenants, burstlessTenant} {
		f.Add([]byte(seed))
	}
	for _, tc := range badKeyFiles {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tenants, err := ParseKeyFile(data)
		if err != nil {
			return
		}
		if len(tenants) == 0 {
			t.Fatal("accepted a key file without tenants")
		}
		names := make(map[string]bool, len(tenants))
		keys := make(map[string]bool, len(tenants))
		for _, tn := range tenants {
			if tn.Name == "" || names[tn.Name] {
				t.Fatalf("accepted an empty or duplicate name %q", tn.Name)
			}
			if len(tn.Key) < minKeyLen || keys[tn.Key] {
				t.Fatalf("%s: accepted a short or duplicate key %q", tn.Name, tn.Key)
			}
			if stride := 1 / tn.Weight; !(stride > 0) || math.IsInf(stride, 0) {
				t.Fatalf("%s: accepted weight %v (stride %v)", tn.Name, tn.Weight, stride)
			}
			names[tn.Name], keys[tn.Key] = true, true
		}
		out, err := json.Marshal(keyFile{Tenants: tenants})
		if err != nil {
			t.Fatalf("marshalling accepted tenants: %v", err)
		}
		again, err := ParseKeyFile(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, tenants) {
			t.Fatalf("round trip changed the tenants:\n got  %+v\n want %+v", again, tenants)
		}
	})
}
