package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceStagesAndSamples(t *testing.T) {
	tr := NewTrace("req-1", "SELECT 1")
	end := tr.StartStage("parse")
	time.Sleep(time.Millisecond)
	end()
	tr.AddSample(SampleExec{Table: "sg_a", Rows: 10, Shards: 1, Scale: 1, Micros: 5})
	tr.SetStrategy("smallgroup")
	tr.SetRowsRead(10)
	tr.SetSamplingFraction(0.05)
	d := tr.Finish("ok")

	if d.RequestID != "req-1" || d.SQL != "SELECT 1" || d.Status != "ok" {
		t.Fatalf("identity fields: %+v", d)
	}
	if len(d.Stages) != 1 || d.Stages[0].Name != "parse" || d.Stages[0].Micros <= 0 {
		t.Fatalf("stages: %+v", d.Stages)
	}
	if d.TotalMicros < d.Stages[0].Micros {
		t.Fatalf("total %d < stage %d", d.TotalMicros, d.Stages[0].Micros)
	}
	if len(d.Samples) != 1 || d.Samples[0].Table != "sg_a" {
		t.Fatalf("samples: %+v", d.Samples)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("trace data not marshallable: %v", err)
	}
}

// TestNilTraceAcceptsEveryRecorderCall: instrumentation sites call the trace
// they got from the context unguarded, so an untraced query's nil *Trace must
// take every recorder method.
func TestNilTraceAcceptsEveryRecorderCall(t *testing.T) {
	tr := TraceFrom(context.Background())
	tr.StartStage("select")()
	tr.AddSample(SampleExec{Table: "sg_a"})
	tr.SetSQL("SELECT 1")
	tr.SetStrategy("smallgroup")
	tr.SetSamplingFraction(0.05)
	tr.SetDegraded(true)
	tr.SetPlanner(&PlannerData{})
	tr.SetRowsRead(10)
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end := tr.StartStage("s")
			tr.AddSample(SampleExec{Table: "t", Rows: int64(i)})
			end()
		}(i)
	}
	wg.Wait()
	d := tr.Finish("ok")
	if len(d.Stages) != 16 || len(d.Samples) != 16 {
		t.Fatalf("stages=%d samples=%d, want 16 each", len(d.Stages), len(d.Samples))
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("background context has a trace")
	}
	tr := NewTrace("id", "sql")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	ctx = WithRequestID(ctx, "abc")
	if RequestIDFrom(ctx) != "abc" {
		t.Fatal("request id did not round-trip")
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatal("background context has a request id")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids %q, %q", a, b)
	}
}
