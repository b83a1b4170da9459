package parallel

import (
	"math/rand"
	"time"
)

// MaxBackoff caps the doubling of a self-healing probe schedule: the ingest
// WAL's degraded mode and a tripped shard breaker both re-probe at most this
// far apart.
const MaxBackoff = 30 * time.Second

// Jitter draws a wait uniformly from [d/2, d]. Pure doubling from a shared
// default synchronizes every process that tripped on the same fault at the
// same moment, so the recovered disk or shard takes the whole herd's probes
// at once; the jitter decorrelates them while keeping the wait within a
// factor of two of the schedule. Degenerate durations pass through.
func Jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// ProbeUntil runs probe on a jittered doubling schedule: it waits Jitter(d)
// with d starting at first, probes, and doubles d up to limit after each
// failure. It returns once a probe succeeds or stop closes.
func ProbeUntil(stop <-chan struct{}, first, limit time.Duration, probe func() error) {
	d := first
	for {
		t := time.NewTimer(Jitter(d))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		if probe() == nil {
			return
		}
		d = min(2*d, limit)
	}
}
