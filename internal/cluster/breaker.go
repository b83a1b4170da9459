package cluster

import (
	"sync"
	"time"

	"dynsample/internal/parallel"
)

// breakerState is the circuit breaker's position. The zero value is closed
// (traffic flows).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String returns the conventional spelling used in /healthz and metrics.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is a per-shard circuit breaker. Closed, it admits requests and
// counts consecutive attempt-level failures; at threshold it trips open and
// starts parallel.ProbeUntil, the jittered doubling schedule the ingest
// coordinator's degraded-disk latch shares. Each probe moves the
// breaker half-open for its duration: a successful probe closes it, a failed
// one re-opens it and doubles the wait. ProbeNow is exposed so an operator
// action (POST /v1/admin/probe) or a test can re-admit a recovered shard
// deterministically instead of waiting out the backoff.
type breaker struct {
	threshold int
	backoff   time.Duration
	probe     func() error
	onState   func(breakerState)

	mu      sync.Mutex
	state   breakerState
	fails   int
	probing bool // a ProbeUntil goroutine is live

	stopOnce sync.Once
	stop     chan struct{}
}

func newBreaker(threshold int, backoff time.Duration, probe func() error, onState func(breakerState)) *breaker {
	b := &breaker{
		threshold: threshold,
		backoff:   backoff,
		probe:     probe,
		onState:   onState,
		stop:      make(chan struct{}),
	}
	b.notify(breakerClosed)
	return b
}

// Allow reports whether a request may be sent through this breaker. Half-open
// does not admit regular traffic — only the probe itself goes through.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// State returns the current position.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// OnSuccess resets the consecutive-failure count.
func (b *breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
}

// OnFailure counts one failed attempt. Attempts, not requests: a request
// that exhausts its retries counts each attempt, so a dead shard trips the
// breaker within a single fan-out instead of needing threshold requests.
func (b *breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.trip()
	}
}

// Open force-trips the breaker (used for shards that fail to join at
// startup: the probe loop then keeps trying to admit them).
func (b *breaker) Open() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trip()
}

// trip moves to open and ensures a probe schedule is running. Caller holds
// mu.
func (b *breaker) trip() {
	if b.state != breakerOpen {
		b.state = breakerOpen
		b.notify(breakerOpen)
	}
	if !b.probing {
		b.probing = true
		go parallel.ProbeUntil(b.stop, b.backoff, parallel.MaxBackoff, b.ProbeNow)
	}
}

// ProbeNow runs one probe synchronously: half-open for the probe's duration,
// closed on success, open again on failure. Calling it on a closed breaker
// is a no-op. Deterministic entry point for operators and tests.
func (b *breaker) ProbeNow() error {
	b.mu.Lock()
	if b.state == breakerClosed {
		b.probing = false
		b.mu.Unlock()
		return nil
	}
	b.state = breakerHalfOpen
	b.notify(breakerHalfOpen)
	b.mu.Unlock()

	err := b.probe()

	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.state = breakerOpen
		b.notify(breakerOpen)
		return err
	}
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
	b.notify(breakerClosed)
	return nil
}

// Shutdown stops any probe loop. The breaker stays usable (Allow etc.) but
// will no longer self-heal; used when the coordinator is closing.
func (b *breaker) Shutdown() {
	b.stopOnce.Do(func() { close(b.stop) })
}

func (b *breaker) notify(s breakerState) {
	if b.onState != nil {
		b.onState(s)
	}
}
