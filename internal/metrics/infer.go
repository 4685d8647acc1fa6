package metrics

import "sync/atomic"

// InferStats counts what the compiled inference runtime did: how many graph
// containers were compiled into plans, how many execution sessions were
// created, and how often a forward pass found a ready activation arena for
// its input shape (hit) versus having to build one (miss). A healthy serving
// steady state shows arena hits growing with traffic while compiles, session
// creations and misses stay flat — each miss is a one-time allocation burst
// for a new (batch, H, W) shape.
type InferStats struct {
	planCompiles atomic.Uint64
	sessions     atomic.Uint64
	arenaHits    atomic.Uint64
	arenaMisses  atomic.Uint64
}

// Infer is the process-wide sink the inference runtime reports into.
var Infer InferStats

// PlanCompiled records one container compiled into an execution plan.
func (s *InferStats) PlanCompiled() { s.planCompiles.Add(1) }

// SessionCreated records one new execution session.
func (s *InferStats) SessionCreated() { s.sessions.Add(1) }

// ArenaHit records a forward pass reusing a prebuilt activation arena.
func (s *InferStats) ArenaHit() { s.arenaHits.Add(1) }

// ArenaMiss records a forward pass that had to build an arena for a
// previously unseen input shape.
func (s *InferStats) ArenaMiss() { s.arenaMisses.Add(1) }

// InferSnapshot is a point-in-time copy of the inference-runtime counters.
type InferSnapshot struct {
	PlanCompiles uint64 `json:"plan_compiles" prom:"drainnas_infer_plan_compiles_total" help:"Model containers compiled into execution plans."`
	Sessions     uint64 `json:"sessions" prom:"drainnas_infer_sessions_total" help:"Inference sessions created."`
	ArenaHits    uint64 `json:"arena_hits" prom:"drainnas_infer_arena_hits_total" help:"Forward passes served by a prebuilt activation arena."`
	ArenaMisses  uint64 `json:"arena_misses" prom:"drainnas_infer_arena_misses_total" help:"Forward passes that built an arena for a new input shape."`
}

// Snapshot returns a copy of the counters. Each value is exact; the set is
// approximately simultaneous, which is what a stats endpoint needs.
func (s *InferStats) Snapshot() InferSnapshot {
	return InferSnapshot{
		PlanCompiles: s.planCompiles.Load(),
		Sessions:     s.sessions.Load(),
		ArenaHits:    s.arenaHits.Load(),
		ArenaMisses:  s.arenaMisses.Load(),
	}
}
