package obs

import (
	"sync"
	"testing"
)

// held is how many observations w holds.
func held(w *Window) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.full {
		return len(w.buf)
	}
	return w.next
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(8)
	if _, ok := w.Quantile(0.5); ok {
		t.Error("empty window reported a quantile")
	}
	if held(w) != 0 {
		t.Errorf("empty window Len = %d", held(w))
	}
}

func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 51}, {0.95, 96}, {1, 100},
	} {
		got, ok := w.Quantile(tc.q)
		if !ok || got != tc.want {
			t.Errorf("Quantile(%v) = %v/%v, want %v", tc.q, got, ok, tc.want)
		}
	}
}

// TestWindowSlides checks eviction: after the window wraps, old observations
// stop influencing the quantile, which is the property hedging relies on (a
// shard that slows down must raise the hedge delay within one window).
func TestWindowSlides(t *testing.T) {
	w := NewWindow(10)
	for i := 0; i < 10; i++ {
		w.Observe(1)
	}
	if got, _ := w.Quantile(0.95); got != 1 {
		t.Fatalf("initial p95 = %v", got)
	}
	for i := 0; i < 10; i++ {
		w.Observe(100)
	}
	if got, _ := w.Quantile(0.95); got != 100 {
		t.Errorf("p95 after full slide = %v, want 100 (old regime evicted)", got)
	}
	if held(w) != 10 {
		t.Errorf("Len = %d, want 10", held(w))
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Observe(float64(g*200 + i))
				w.Quantile(0.95)
			}
		}(g)
	}
	wg.Wait()
	if held(w) != 64 {
		t.Errorf("Len = %d, want 64", held(w))
	}
}
