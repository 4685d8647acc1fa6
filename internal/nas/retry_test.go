package nas

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"drainnas/internal/resnet"
	"drainnas/internal/surrogate"
)

func testConfig() resnet.Config {
	return PaperSpace().Enumerate(InputCombo{5, 8})[0]
}

func TestRetryEvaluatorAbsorbsTransientFaults(t *testing.T) {
	base := SurrogateEvaluator{Model: surrogate.Default()}
	flaky := &FlakyEvaluator{Inner: base, FailFirst: 7}
	var delays []time.Duration
	retries := 0
	re := RetryEvaluator{
		Inner:       flaky,
		MaxAttempts: 8,
		OnRetry:     func(int, error) { retries++ },
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	}
	cfg := testConfig()
	acc, err := re.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.Evaluate(cfg)
	if acc != want {
		t.Fatalf("accuracy %v, want %v", acc, want)
	}
	if flaky.Attempts(cfg) != 8 {
		t.Fatalf("attempts %d, want 8 (7 faults + 1 success)", flaky.Attempts(cfg))
	}
	if retries != 7 {
		t.Fatalf("OnRetry fired %d times, want 7", retries)
	}
	// Exponential backoff from 100ms, doubling until the 5s cap.
	ms := time.Millisecond
	wantDelays := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second}
	if !reflect.DeepEqual(delays, wantDelays) {
		t.Fatalf("backoff delays %v, want %v", delays, wantDelays)
	}
}

func TestRetryEvaluatorGivesUpAfterBudget(t *testing.T) {
	base := SurrogateEvaluator{Model: surrogate.Default()}
	flaky := &FlakyEvaluator{Inner: base, FailFirst: 10}
	re := RetryEvaluator{Inner: flaky, MaxAttempts: 3, Sleep: func(time.Duration) {}}
	cfg := testConfig()
	if _, err := re.Evaluate(cfg); !IsTransient(err) {
		t.Fatalf("want the last transient error back, got %v", err)
	}
	if flaky.Attempts(cfg) != 3 {
		t.Fatalf("attempts %d, want exactly MaxAttempts", flaky.Attempts(cfg))
	}
}

// permanentEvaluator always fails with a non-transient error.
type permanentEvaluator struct{ calls int }

func (e *permanentEvaluator) Evaluate(resnet.Config) (float64, error) {
	e.calls++
	return 0, fmt.Errorf("invalid architecture")
}

func TestRetryEvaluatorDoesNotRetryPermanentErrors(t *testing.T) {
	inner := &permanentEvaluator{}
	re := RetryEvaluator{Inner: inner, MaxAttempts: 5, Sleep: func(time.Duration) {
		t.Fatal("slept for a permanent error")
	}}
	if _, err := re.Evaluate(testConfig()); err == nil {
		t.Fatal("expected error")
	}
	if inner.calls != 1 {
		t.Fatalf("permanent error retried %d times", inner.calls-1)
	}
}

func TestRetryEvaluatorSingleAttemptPassthrough(t *testing.T) {
	base := SurrogateEvaluator{Model: surrogate.Default()}
	re := RetryEvaluator{Inner: base} // MaxAttempts 0 → one attempt
	cfg := testConfig()
	acc, err := re.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := base.Evaluate(cfg); acc != want {
		t.Fatalf("passthrough accuracy %v, want %v", acc, want)
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(fmt.Errorf("oom: %w", ErrTransient)) {
		t.Fatal("wrapped transient not recognized")
	}
	if IsTransient(errors.New("bad config")) {
		t.Fatal("plain error marked transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil marked transient")
	}
}
