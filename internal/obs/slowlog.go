package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultSlowLogSize is how many entries a SlowLog retains when constructed
// with size 0.
const DefaultSlowLogSize = 32

// SlowLogEntry is one retained query: identity, outcome, latency and the
// full pipeline trace.
type SlowLogEntry struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id,omitempty"`
	SQL       string    `json:"sql"`
	Status    string    `json:"status"`
	Micros    int64     `json:"micros"`
	Trace     TraceData `json:"trace"`
}

// SlowLog retains the N slowest queries seen so far, with their traces. The
// store is a fixed-size bounded set ordered by latency: Observe is O(N) in
// the retained size (N is small — tens of entries) and only runs once per
// completed query, so it never touches the scan hot path.
type SlowLog struct {
	mu      sync.Mutex
	size    int
	entries []SlowLogEntry // sorted slowest-first
}

// NewSlowLog returns a log retaining the n slowest queries (0 means
// DefaultSlowLogSize).
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = DefaultSlowLogSize
	}
	return &SlowLog{size: n}
}

// Size returns the retention capacity.
func (l *SlowLog) Size() int { return l.size }

// Observe offers one completed query to the log; it is kept if it ranks
// among the N slowest seen so far.
func (l *SlowLog) Observe(e SlowLogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.size && e.Micros <= l.entries[len(l.entries)-1].Micros {
		return // faster than everything retained
	}
	// Insert in slowest-first order, then clip the tail.
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Micros < e.Micros })
	l.entries = append(l.entries, SlowLogEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	if len(l.entries) > l.size {
		l.entries = l.entries[:l.size]
	}
}

// Slowest returns the retained entries, slowest first.
func (l *SlowLog) Slowest() []SlowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowLogEntry(nil), l.entries...)
}
