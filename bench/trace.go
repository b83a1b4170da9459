package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it and the op they all belong to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the parent span, -1 for a root
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. The traced replay runs on
// one goroutine, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNS = int64(time.Since(t.t0)) }

// in times fn as a child span of parent (-1 for a root) and returns how long
// it took.
func (t *tracer) in(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// selfTimes returns, per span name, every span's duration minus the part of
// it its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS-covered[i]))
	}
	return out
}

// durations returns every span's full duration, per span name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write stores the spans as bench/out/trace_<workload>.json.
func (t *tracer) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+workload+".json"), data, 0o644)
}
