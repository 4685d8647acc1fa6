package serve

import (
	"context"
	"testing"
	"time"
)

// BenchmarkSubmitLone is the batcher's rung of the request-path ladder: one
// Submit at a time into a Server at its default Options (batch 8, 2 ms
// MaxDelay), over the tiny 3×16×16 plan the tests serve, so each request
// arrives alone at an idle server. ns/op is Submit end to end; queued_ms
// is the mean Response.Queued, the time from admission to the batch's
// start. Outside the timed region: building the server and one warm-up
// request that loads the plan.
func BenchmarkSubmitLone(b *testing.B) {
	loader, _ := testLoader(b)
	s := NewServer(loader, Options{})
	defer s.Close()
	in := testInput(1)
	if _, err := s.Submit(context.Background(), "m", in); err != nil {
		b.Fatal(err)
	}
	var queued time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Submit(context.Background(), "m", in)
		if err != nil {
			b.Fatal(err)
		}
		queued += resp.Queued
	}
	b.StopTimer()
	b.ReportMetric(float64(queued)/float64(time.Millisecond)/float64(b.N), "queued_ms")
}
