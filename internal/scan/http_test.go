package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
	"drainnas/internal/tenant"
	"drainnas/internal/tensor"
)

func testFactory(be Backend) BackendFactory {
	return func(api.ScanRequest) (Backend, error) { return be, nil }
}

func waitState(t *testing.T, j *Job, state string) api.ScanJob {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if doc := j.Snapshot(); doc.State == state {
			return doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job never reached %s (at %s)", state, j.Snapshot().State)
	return api.ScanJob{}
}

func TestManagerLimitAndGet(t *testing.T) {
	m := NewManager(&metrics.ScanStats{}, 1)
	req := testReq(t)
	// A backend that blocks until released keeps the first job running.
	release := make(chan struct{})
	be := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		return Result{Class: 0, Logits: scoreLogits(0.1), BatchSize: 1}, nil
	})
	j1, err := m.Start(req, StartOptions{Backend: be, Model: req.Model})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(req, StartOptions{Backend: be, Model: req.Model}); err == nil {
		t.Fatal("second start should hit the concurrent-scan limit")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got, ok := m.Get(j1.Snapshot().ID); !ok || got != j1 {
		t.Fatal("Get did not return the started job")
	}
	if _, ok := m.Get("scan-999999"); ok {
		t.Fatal("Get found a job that does not exist")
	}
	close(release)
	waitState(t, j1, api.ScanStateDone)
	// With the slot free a new job starts fine.
	j2, err := m.Start(req, StartOptions{Backend: be, Model: req.Model})
	if err != nil {
		t.Fatalf("start after drain: %v", err)
	}
	waitState(t, j2, api.ScanStateDone)
}

func TestManagerEviction(t *testing.T) {
	m := NewManager(nil, 4)
	// Synthesize finished jobs directly: eviction is bookkeeping, not a run.
	for i := 0; i < retainedJobs+10; i++ {
		m.mu.Lock()
		m.seq++
		id := fmt.Sprintf("scan-%06d", m.seq)
		j := &Job{doc: api.ScanJob{ID: id, State: api.ScanStateDone}, cancel: func() {}}
		j.cond = sync.NewCond(&j.mu)
		m.jobs[id] = j
		m.ord = append(m.ord, id)
		m.evictLocked()
		m.mu.Unlock()
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n != retainedJobs {
		t.Fatalf("retained %d jobs, want %d", n, retainedJobs)
	}
	if _, ok := m.Get("scan-000001"); ok {
		t.Fatal("oldest job should have been evicted")
	}
	if _, ok := m.Get(fmt.Sprintf("scan-%06d", retainedJobs+10)); !ok {
		t.Fatal("newest job must survive eviction")
	}
}

func TestFollowReplayAndResume(t *testing.T) {
	m := NewManager(nil, 2)
	req := testReq(t)
	j, err := m.Start(req, StartOptions{Backend: heuristicBackend(0), Model: req.Model})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, api.ScanStateDone)

	var all []api.ScanEvent
	if err := j.Follow(context.Background(), 0, func(ev api.ScanEvent) error {
		all = append(all, ev)
		return nil
	}); err != nil {
		t.Fatalf("follow: %v", err)
	}
	if len(all) == 0 || all[len(all)-1].Type != api.ScanEventDone {
		t.Fatalf("replay missing terminal event (%d events)", len(all))
	}
	for i, ev := range all {
		if ev.Seq != i {
			t.Fatalf("replay seq %d at index %d", ev.Seq, i)
		}
	}
	// Resume from the middle delivers exactly the tail.
	from := len(all) - 3
	var tail []api.ScanEvent
	if err := j.Follow(context.Background(), from, func(ev api.ScanEvent) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].Seq != from {
		t.Fatalf("resume from %d delivered %d events starting at %d", from, len(tail), tail[0].Seq)
	}
	// fn error propagates.
	wantErr := fmt.Errorf("client gone")
	if err := j.Follow(context.Background(), 0, func(api.ScanEvent) error { return wantErr }); err != wantErr {
		t.Fatalf("follow returned %v, want fn error", err)
	}
}

func TestFollowLiveCancel(t *testing.T) {
	m := NewManager(nil, 2)
	req := testReq(t)
	req.TileSize = 128
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	j, err := m.Start(req, StartOptions{Backend: heuristicBackend(2 * time.Millisecond), Model: req.Model})
	if err != nil {
		t.Fatal(err)
	}
	// Follow live; cancel the job after a few tiles and require the stream
	// to end with the canceled terminal event rather than hanging.
	done := make(chan error, 1)
	go func() {
		tiles := 0
		done <- j.Follow(context.Background(), 0, func(ev api.ScanEvent) error {
			if ev.Type == api.ScanEventTile {
				tiles++
				if tiles == 2 {
					j.Cancel()
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow hung after cancel")
	}
	if st := j.Snapshot().State; st != api.ScanStateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
}

func newScanServer(t *testing.T, edge *tenant.Tier, factory BackendFactory) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(&metrics.ScanStats{}, 2)
	mux := http.NewServeMux()
	Register(mux, m, edge, factory)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, m
}

func TestHTTPScanLifecycle(t *testing.T) {
	srv, _ := newScanServer(t, nil, testFactory(heuristicBackend(0)))
	c := api.NewClient(srv.URL, api.ClientOptions{})

	req := testReq(t)
	job, err := c.StartScan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != api.ScanStateRunning {
		t.Fatalf("start returned %+v", job)
	}

	// Stream events to completion, then rebuild the heat map from them.
	stream, err := c.ScanEvents(context.Background(), job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var events []api.ScanEvent
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 || events[len(events)-1].Type != api.ScanEventDone {
		t.Fatalf("stream ended without done event (%d events)", len(events))
	}
	final := events[len(events)-1].Job
	if final.State != api.ScanStateDone {
		t.Fatalf("terminal state %s: %+v", final.State, final)
	}
	hm := NewHeatMap(final.GridW, final.GridH, req.Threshold)
	for _, ev := range events {
		if ev.Type == api.ScanEventTile {
			hm.SetTile(*ev.Tile)
		}
	}
	if hm.Crossings() != final.Crossings {
		t.Fatalf("heat map crossings %d != job crossings %d", hm.Crossings(), final.Crossings)
	}

	// Poll agrees with the stream's terminal document.
	polled, err := c.ScanStatus(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.State != api.ScanStateDone || polled.DoneTiles != final.DoneTiles {
		t.Fatalf("poll %+v disagrees with stream %+v", polled, final)
	}

	// Resume replays exactly the tail.
	stream2, err := c.ScanEvents(context.Background(), job.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer stream2.Close()
	first, err := stream2.Next()
	if err != nil || first.Seq != 5 {
		t.Fatalf("resume first event %+v err %v, want seq 5", first, err)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newScanServer(t, nil, testFactory(heuristicBackend(0)))
	c := api.NewClient(srv.URL, api.ClientOptions{})
	ctx := context.Background()

	cases := []struct {
		name string
		req  api.ScanRequest
		code string
	}{
		{"missing model", api.ScanRequest{Region: "Nebraska", TileSize: 64, ChipSize: 16}, api.CodeBadInput},
		{"unknown region", api.ScanRequest{Model: "resnet18", Region: "Atlantis", TileSize: 64, ChipSize: 16}, api.CodeBadInput},
		{"bad precision", api.ScanRequest{Model: "resnet18", Precision: "fp64", Region: "Nebraska", TileSize: 64, ChipSize: 16}, api.CodeBadInput},
		{"chip too big", api.ScanRequest{Model: "resnet18", Region: "Nebraska", TileSize: 64, ChipSize: 64}, api.CodeBadInput},
	}
	for _, tc := range cases {
		if _, err := c.StartScan(ctx, tc.req); api.ErrorCode(err) != tc.code {
			t.Fatalf("%s: got %v, want code %s", tc.name, err, tc.code)
		}
	}

	if _, err := c.ScanStatus(ctx, "scan-404"); api.ErrorCode(err) != api.CodeScanNotFound {
		t.Fatalf("status of unknown id: %v", err)
	}
	if _, err := c.CancelScan(ctx, "scan-404"); api.ErrorCode(err) != api.CodeScanNotFound {
		t.Fatalf("cancel of unknown id: %v", err)
	}
	if _, err := c.ScanEvents(ctx, "scan-404", 0); api.ErrorCode(err) != api.CodeScanNotFound {
		t.Fatalf("events of unknown id: %v", err)
	}

	// Bad from= is rejected before streaming starts.
	resp, err := http.Get(srv.URL + "/v1/scan/scan-404/events?from=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from status %d", resp.StatusCode)
	}
}

func TestHTTPScanLimit(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocked := backendFunc(func(ctx context.Context, model string, input *tensor.Tensor) (Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return Result{}, ctx.Err()
	})
	srv, m := newScanServer(t, nil, testFactory(blocked))
	_ = m
	c := api.NewClient(srv.URL, api.ClientOptions{})
	ctx := context.Background()
	req := testReq(t)
	for i := 0; i < 2; i++ {
		if _, err := c.StartScan(ctx, req); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	_, err := c.StartScan(ctx, req)
	if api.ErrorCode(err) != api.CodeScanLimit {
		t.Fatalf("third start: %v, want %s", err, api.CodeScanLimit)
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, m := newScanServer(t, nil, testFactory(heuristicBackend(3*time.Millisecond)))
	c := api.NewClient(srv.URL, api.ClientOptions{})
	ctx := context.Background()
	req := testReq(t)
	req.TileSize = 128
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	job, err := c.StartScan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelScan(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(job.ID)
	final := waitState(t, j, api.ScanStateCanceled)
	if final.DoneTiles >= final.TotalTiles {
		t.Fatalf("cancel had no effect: %d/%d tiles", final.DoneTiles, final.TotalTiles)
	}
}

func writeKeys(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	blob := `{"tenants":[
		{"name":"alice","key":"alice-key-0001","weight":1},
		{"name":"bob","key":"bob-key-0001","weight":1}
	]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHTTPTenantGating(t *testing.T) {
	edge, err := tenant.LoadTier(writeKeys(t), time.Hour, 4, "scan-test")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newScanServer(t, edge, testFactory(heuristicBackend(0)))
	ctx := context.Background()
	req := testReq(t)

	anon := api.NewClient(srv.URL, api.ClientOptions{})
	if _, err := anon.StartScan(ctx, req); api.ErrorCode(err) != api.CodeUnauthorized {
		t.Fatalf("anonymous start: %v, want unauthorized", err)
	}

	alice := api.NewClient(srv.URL, api.ClientOptions{APIKey: "alice-key-0001"})
	job, err := alice.StartScan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", job.Tenant)
	}
	if _, err := anon.ScanStatus(ctx, job.ID); api.ErrorCode(err) != api.CodeUnauthorized {
		t.Fatalf("anonymous status: %v", err)
	}
	// Another tenant can't see (or cancel) alice's job.
	bob := api.NewClient(srv.URL, api.ClientOptions{APIKey: "bob-key-0001"})
	if _, err := bob.ScanStatus(ctx, job.ID); api.ErrorCode(err) != api.CodeScanNotFound {
		t.Fatalf("cross-tenant status: %v, want scan_not_found", err)
	}
	if _, err := bob.CancelScan(ctx, job.ID); api.ErrorCode(err) != api.CodeScanNotFound {
		t.Fatalf("cross-tenant cancel: %v", err)
	}
	if _, err := alice.ScanStatus(ctx, job.ID); err != nil {
		t.Fatalf("owner status: %v", err)
	}
}

func TestHTTPTenantQuotaThrottlesTiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	// 200 rps with burst 4: a 16-tile scan must wait for refill, proving the
	// per-tile Admit gate debits the bucket rather than failing tiles.
	blob := `{"tenants":[{"name":"slow","key":"slow-key","weight":1,"rate_rps":200,"burst":4}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	edge, err := tenant.LoadTier(path, time.Hour, 4, "scan-test")
	if err != nil {
		t.Fatal(err)
	}
	srv, m := newScanServer(t, edge, testFactory(heuristicBackend(0)))
	c := api.NewClient(srv.URL, api.ClientOptions{APIKey: "slow-key"})
	job, err := c.StartScan(context.Background(), testReq(t))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(job.ID)
	final := waitState(t, j, api.ScanStateDone)
	if final.FailedTiles != 0 || final.DoneTiles != final.TotalTiles {
		t.Fatalf("quota throttling failed tiles: %+v", final)
	}
}

// FuzzScanEventsFrom holds the ?from= resume parser to its contract: the
// empty string is 0, and any other string is accepted exactly when
// strconv.Atoi reads it as an int >= 0, with that value.
func FuzzScanEventsFrom(f *testing.F) {
	for _, seed := range []string{"", "0", "49", "-1", "+7", "007", "bogus", " 1", "1e3", "9223372036854775807", "9223372036854775808", "-0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := parseFrom(s)
		if s == "" {
			if n != 0 || err != nil {
				t.Fatalf("parseFrom(\"\") = %d, %v; want 0, nil", n, err)
			}
			return
		}
		want, werr := strconv.Atoi(s)
		if ok := werr == nil && want >= 0; ok != (err == nil) {
			t.Fatalf("parseFrom(%q) = %d, %v; strconv.Atoi gives %d, %v", s, n, err, want, werr)
		}
		if err == nil && n != want {
			t.Fatalf("parseFrom(%q) = %d, want %d", s, n, want)
		}
		if err != nil && (n != 0 || !strings.Contains(err.Error(), strconv.Quote(s))) {
			t.Fatalf("parseFrom(%q) rejected with %d, %q: want 0 and an error naming the input", s, n, err)
		}
	})
}
