// Package sched holds the three scheduling decisions of the serving stack
// as plain state machines: token-bucket admission (Bucket), scheduler-order
// slot granting (Heap, Gate) and micro-batch formation (Former). Each takes
// the current time or the triggering event as an argument and returns a
// decision; none owns a clock, a lock, a goroutine or a timer, and none is
// safe for concurrent use. The live tiers wrap them in their own locking
// and timers (route.TokenBucket and the router's dispatch gate,
// tenant.FairQueue, serve.Server); internal/sim drives the very same
// objects from its event loop, so a simulated run takes the decisions the
// deployed code would.
package sched

import "fmt"

// Class is a request's service-level class. It orders dispatch under the
// Priority mode: Interactive preempts Standard preempts Batch when slots
// are scarce. The zero value is ClassStandard so an unannotated request
// gets middle-of-the-road treatment.
type Class int

// The three classes; Rank, not the declaration order, is the priority.
const (
	ClassStandard Class = iota
	ClassBatch
	ClassInteractive
)

// String names the class as it appears on the wire ("slo" field) and in
// metrics labels.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassInteractive:
		return "interactive"
	case ClassStandard:
		return "standard"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Rank is the dispatch rank under the Priority mode; larger wins.
func (c Class) Rank() int {
	switch c {
	case ClassInteractive:
		return 2
	case ClassStandard:
		return 1
	default:
		return 0
	}
}

// Mode selects how waiting requests are ordered when slots free up.
type Mode int

const (
	// FCFS dispatches in arrival order.
	FCFS Mode = iota
	// Priority dispatches by class (interactive > standard > batch), FCFS
	// within a class.
	Priority
	// SJF dispatches the request with the smallest latency estimate first,
	// FCFS among equals. Classic shortest-job-first: minimizes mean wait
	// when job lengths differ by model.
	SJF
)

// String names the mode as accepted by -sched.
func (m Mode) String() string {
	switch m {
	case Priority:
		return "priority"
	case SJF:
		return "sjf"
	default:
		return "fcfs"
	}
}
