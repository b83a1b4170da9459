package parallel

import (
	"errors"
	"testing"
	"time"
)

// TestProbeUntilStopsOnSuccess: failed probes are retried on the doubling
// schedule, never sooner than half of each step, and the first success ends
// the loop.
func TestProbeUntilStopsOnSuccess(t *testing.T) {
	const first = 4 * time.Millisecond
	var at []time.Time
	start := time.Now()
	ProbeUntil(make(chan struct{}), first, 10*time.Millisecond, func() error {
		at = append(at, time.Now())
		if len(at) < 4 {
			return errors.New("still down")
		}
		return nil
	})
	if len(at) != 4 {
		t.Fatalf("%d probes ran, want 4", len(at))
	}
	// Steps are 4, 8, 10 (capped), 10 ms; each jittered wait is at least
	// half its step.
	prev := start
	for i, step := range []time.Duration{4, 8, 10, 10} {
		if gap := at[i].Sub(prev); gap < step*time.Millisecond/2 {
			t.Errorf("probe %d ran %v after the last, want at least %v", i, gap, step*time.Millisecond/2)
		}
		prev = at[i]
	}
}

// TestProbeUntilCapsBackoff: with limit == first the waits never double, so
// eight probes take a few milliseconds, not the 127 ms that uncapped
// doubling from 1 ms would wait at least.
func TestProbeUntilCapsBackoff(t *testing.T) {
	n := 0
	start := time.Now()
	ProbeUntil(make(chan struct{}), time.Millisecond, time.Millisecond, func() error {
		if n++; n < 8 {
			return errors.New("still down")
		}
		return nil
	})
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("8 probes capped at 1ms took %v", elapsed)
	}
}

// TestProbeUntilStopsOnClose: a closed stop channel ends a loop whose probe
// never succeeds, and one closed up front runs no probe at all.
func TestProbeUntilStopsOnClose(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	ProbeUntil(stop, time.Hour, time.Hour, func() error {
		t.Fatal("probe ran after stop closed")
		return nil
	})

	stop = make(chan struct{})
	probed := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ProbeUntil(stop, time.Millisecond, time.Millisecond, func() error {
			select {
			case probed <- struct{}{}:
			default:
			}
			return errors.New("still down")
		})
	}()
	<-probed
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ProbeUntil did not return after stop closed")
	}
}
