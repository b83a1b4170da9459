package ingest

import (
	"testing"
	"time"

	"dynsample/internal/parallel"
)

// TestJitterBackoffRange pins the degraded-mode probe schedule's jitter:
// every drawn wait must stay in [d/2, d] (never shorter than half the
// schedule, never longer than it), and the draws must actually vary — a
// constant would re-synchronize every degraded process sharing a disk,
// which is the failure mode the jitter exists to break.
func TestJitterBackoffRange(t *testing.T) {
	for _, d := range []time.Duration{
		500 * time.Millisecond, time.Second, parallel.MaxBackoff,
	} {
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
}

func TestJitterBackoffDegenerate(t *testing.T) {
	for _, d := range []time.Duration{0, 1, -5} {
		if got := parallel.Jitter(d); got != d {
			t.Errorf("Jitter(%v) = %v, want passthrough for degenerate input", d, got)
		}
	}
}
