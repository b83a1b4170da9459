package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynsample/internal/parallel"
)

// newTestBreaker builds a breaker with a controllable probe and fast timing.
func newTestBreaker(probe func() error) *breaker {
	if probe == nil {
		probe = func() error { return errors.New("probe not expected") }
	}
	return newBreaker(3, 5*time.Millisecond, probe, nil)
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := newTestBreaker(func() error { return errors.New("still down") })
	defer b.Shutdown()
	if !b.Allow() {
		t.Fatal("new breaker must start closed")
	}
	b.OnFailure()
	b.OnFailure()
	if !b.Allow() {
		t.Fatal("breaker tripped before the threshold")
	}
	b.OnFailure()
	if b.Allow() {
		t.Fatal("breaker did not trip at the threshold")
	}
	if s := b.State(); s != breakerOpen && s != breakerHalfOpen {
		t.Fatalf("state after trip = %v", s)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b := newTestBreaker(nil)
	defer b.Shutdown()
	b.OnFailure()
	b.OnFailure()
	b.OnSuccess()
	b.OnFailure()
	b.OnFailure()
	if !b.Allow() {
		t.Fatal("non-consecutive failures must not trip the breaker")
	}
	b.OnFailure()
	if b.Allow() {
		t.Fatal("third consecutive failure must trip")
	}
}

func TestBreakerProbeNowRecovers(t *testing.T) {
	var healthy atomic.Bool
	b := newTestBreaker(func() error {
		if healthy.Load() {
			return nil
		}
		return errors.New("still down")
	})
	defer b.Shutdown()
	b.Open()
	if err := b.ProbeNow(); err == nil {
		t.Fatal("probe of a down shard must fail")
	}
	if b.Allow() {
		t.Fatal("failed probe must leave the breaker open")
	}
	healthy.Store(true)
	if err := b.ProbeNow(); err != nil {
		t.Fatalf("probe of a healthy shard failed: %v", err)
	}
	if !b.Allow() || b.State() != breakerClosed {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestBreakerHalfOpenDuringProbe(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	b := newTestBreaker(func() error {
		close(started)
		<-release
		return nil
	})
	defer b.Shutdown()
	// A long backoff keeps the background loop from racing the manual probe.
	b.backoff = time.Hour
	b.Open()
	done := make(chan error, 1)
	go func() { done <- b.ProbeNow() }()
	<-started
	if s := b.State(); s != breakerHalfOpen {
		t.Errorf("state during probe = %v, want half-open", s)
	}
	if b.Allow() {
		t.Error("half-open breaker must not admit regular traffic")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.State() != breakerClosed {
		t.Fatal("breaker did not close after the released probe")
	}
}

// TestBreakerProbeLoopReadmits proves the background loop re-closes a
// tripped breaker on its own once the probe starts succeeding — the
// self-healing path that needs no operator and no coordinator restart.
func TestBreakerProbeLoopReadmits(t *testing.T) {
	var calls atomic.Int64
	b := newTestBreaker(func() error {
		if calls.Add(1) < 3 {
			return errors.New("still down")
		}
		return nil
	})
	defer b.Shutdown()
	b.Open()
	deadline := time.Now().Add(5 * time.Second)
	for b.State() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed; %d probes ran", calls.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if calls.Load() < 3 {
		t.Errorf("closed after %d probes, want at least 3", calls.Load())
	}
}

func TestBreakerStateCallbacks(t *testing.T) {
	var mu sync.Mutex
	var seen []breakerState
	b := newBreaker(1, time.Hour, func() error { return nil },
		func(s breakerState) {
			mu.Lock()
			seen = append(seen, s)
			mu.Unlock()
		})
	defer b.Shutdown()
	b.OnFailure() // threshold 1: trips
	b.ProbeNow()  // half-open then closed
	mu.Lock()
	defer mu.Unlock()
	want := []breakerState{breakerClosed, breakerOpen, breakerHalfOpen, breakerClosed}
	if len(seen) != len(want) {
		t.Fatalf("state sequence = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("state sequence = %v, want %v", seen, want)
		}
	}
}

func TestBreakerShutdownIsIdempotent(t *testing.T) {
	b := newTestBreaker(func() error { return errors.New("down") })
	b.Open()
	b.Shutdown()
	b.Shutdown() // must not panic on double close
}

func TestJitterEnvelope(t *testing.T) {
	for _, d := range []time.Duration{10 * time.Millisecond, time.Second} {
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			got := parallel.Jitter(d)
			if got < d/2 || got > d {
				t.Fatalf("Jitter(%v) = %v, want in [%v, %v]", d, got, d/2, d)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Errorf("Jitter(%v) produced no variation over 200 draws", d)
		}
	}
	for _, d := range []time.Duration{0, 1, -3} {
		if got := parallel.Jitter(d); got != d {
			t.Errorf("Jitter(%v) = %v, want passthrough", d, got)
		}
	}
}
