package obs

import (
	"sort"
	"sync"
)

// Window is a fixed-size sliding window of float64 observations with
// quantile queries, used by the cluster coordinator to track recent
// per-shard latencies and derive the hedging delay ("hedge after the p95 of
// recent attempts"). It is a ring buffer: once full, each new observation
// evicts the oldest, so the quantile tracks the recent regime rather than
// the whole process lifetime (a histogram's cumulative buckets cannot do
// that, and hedging needs to adapt when a shard slows down).
//
// All methods are safe for concurrent use.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
}

// NewWindow returns a window keeping the last size observations. size must
// be positive.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic("obs: NewWindow size must be positive")
	}
	return &Window{buf: make([]float64, size)}
}

// Observe records one observation, evicting the oldest if the window is full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
	w.mu.Unlock()
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the held observations
// using nearest-rank on a sorted copy, and false if the window is empty.
// With n observations the cost is O(n log n); windows are small (hundreds of
// entries), so this stays off any per-row path.
func (w *Window) Quantile(q float64) (float64, bool) {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	if n == 0 {
		w.mu.Unlock()
		return 0, false
	}
	tmp := make([]float64, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0], true
	}
	if q >= 1 {
		return tmp[n-1], true
	}
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx], true
}
