package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"drainnas/internal/api"
	"drainnas/internal/metrics"
)

var (
	// ErrLimit means the manager is at its concurrent-scan bound
	// (api.CodeScanLimit / 429 on the wire).
	ErrLimit = errors.New("scan: concurrent scan limit reached")
	// ErrNotFound means an unknown job ID (api.CodeScanNotFound / 404).
	ErrNotFound = errors.New("scan: no such job")
)

// DefaultMaxRunning bounds concurrently running scans per manager; each
// running scan holds a window of in-flight tiles, so this bounds the
// scan tier's total imposed load.
const DefaultMaxRunning = 4

// retainedJobs bounds finished jobs (and their event history) kept for
// polling and replay before the oldest are evicted.
const retainedJobs = 64

// Manager owns the scan-job table: it starts runs, retains each job's
// ordered event history for replay-then-follow streaming, and enforces the
// concurrent-scan bound. The backend arrives per job (StartOptions) so one
// manager serves jobs with differing SLO classes.
type Manager struct {
	stats      *metrics.ScanStats
	maxRunning int

	mu   sync.Mutex
	jobs map[string]*Job
	ord  []string // insertion order, for eviction
	seq  int
}

// NewManager builds a manager. maxRunning <= 0 uses DefaultMaxRunning;
// stats may be nil.
func NewManager(stats *metrics.ScanStats, maxRunning int) *Manager {
	if maxRunning <= 0 {
		maxRunning = DefaultMaxRunning
	}
	return &Manager{
		stats:      stats,
		maxRunning: maxRunning,
		jobs:       make(map[string]*Job),
	}
}

// StartOptions carries the per-job context Start needs beyond the request.
type StartOptions struct {
	// Backend serves the job's tiles (required).
	Backend Backend
	// Model is the resolved serving key.
	Model string
	// Tenant attributes the job when the edge tier admitted it.
	Tenant string
	// Admit is the optional per-tile admission gate (tenant token debit).
	Admit func(ctx context.Context) error
}

// Start validates nothing (the HTTP layer already did), admits the job
// against the concurrent-scan bound, and launches the run. The returned
// job is immediately pollable and followable.
func (m *Manager) Start(req api.ScanRequest, opts StartOptions) (*Job, error) {
	m.mu.Lock()
	running := 0
	for _, j := range m.jobs {
		if !j.finished() {
			running++
		}
	}
	if running >= m.maxRunning {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d running, max %d)", ErrLimit, running, m.maxRunning)
	}
	m.seq++
	id := fmt.Sprintf("scan-%06d", m.seq)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		cancel: cancel,
		doc: api.ScanJob{
			ID: id, State: api.ScanStateRunning,
			Model: opts.Model, Region: req.Region, Order: req.Order, Seed: req.Seed,
			Tenant: opts.Tenant,
		},
	}
	j.cond = sync.NewCond(&j.mu)
	m.jobs[id] = j
	m.ord = append(m.ord, id)
	m.evictLocked()
	m.mu.Unlock()

	go func() {
		final := Run(ctx, Config{
			Req:     req,
			Model:   opts.Model,
			Backend: opts.Backend,
			Job:     j.doc,
			Stats:   m.stats,
			Admit:   opts.Admit,
		}, j.append)
		cancel()
		j.mu.Lock()
		j.doc = final
		j.cond.Broadcast()
		j.mu.Unlock()
	}()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Running jobs are never evicted.
func (m *Manager) evictLocked() {
	if len(m.ord) <= retainedJobs {
		return
	}
	kept := m.ord[:0]
	excess := len(m.ord) - retainedJobs
	for _, id := range m.ord {
		if excess > 0 {
			if j := m.jobs[id]; j != nil && j.finished() {
				delete(m.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	m.ord = kept
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Job is one scan's live state: the evolving document plus the full
// ordered event history, which lets an events stream replay from any
// sequence number and then follow live.
type Job struct {
	mu     sync.Mutex
	cond   *sync.Cond
	doc    api.ScanJob
	events []api.ScanEvent
	cancel context.CancelFunc
}

// append is the runner's emit hook: record the event, refresh the
// document, wake followers. Events arrive in seq order from one goroutine.
func (j *Job) append(ev api.ScanEvent, doc api.ScanJob) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.doc = doc
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Snapshot returns the job document as of the latest event.
func (j *Job) Snapshot() api.ScanJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doc
}

// finished reports a terminal state.
func (j *Job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doc.State != api.ScanStateRunning
}

// Cancel requests cancellation; the run drains its in-flight tiles and
// lands in the canceled state. Idempotent, and a no-op on finished jobs.
func (j *Job) Cancel() { j.cancel() }

// Follow replays the event history from sequence number from, then follows
// live until the terminal event has been delivered, fn returns an error
// (client gone), or ctx expires. fn is called in strict seq order.
func (j *Job) Follow(ctx context.Context, from int, fn func(api.ScanEvent) error) error {
	if from < 0 {
		from = 0
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		case <-stop:
		}
	}()
	next := from
	for {
		j.mu.Lock()
		for next >= len(j.events) && j.doc.State == api.ScanStateRunning && ctx.Err() == nil {
			j.cond.Wait()
		}
		if ctx.Err() != nil {
			j.mu.Unlock()
			return ctx.Err()
		}
		if next >= len(j.events) {
			j.mu.Unlock()
			return nil // terminal and fully delivered
		}
		ev := j.events[next]
		j.mu.Unlock()
		next++
		if err := fn(ev); err != nil {
			return err
		}
	}
}
