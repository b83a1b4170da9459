package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
)

// benchQuery posts one /v1/query and fails the benchmark on any non-200.
func benchQuery(b *testing.B, url string, body []byte) {
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkConcurrentQuery measures parallel query throughput through the
// whole HTTP stack. The baseline has no ingestion configured; the
// with-ingest variant runs the same queries while a writer streams batches,
// so bench.sh can show the ingest subsystem leaves query latency within
// noise.
func BenchmarkConcurrentQuery(b *testing.B) {
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region"})

	b.Run("Baseline", func(b *testing.B) {
		sys := testSystem(b, core.SmallGroupConfig{Workers: 4})
		srv := httptest.NewServer(New(sys, Config{}).Handler())
		defer srv.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchQuery(b, srv.URL, body)
			}
		})
	})

	b.Run("WithIngestLoad", func(b *testing.B) {
		sys := testSystem(b, core.SmallGroupConfig{
			Workers: 4, BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 2000,
		})
		w, err := ingest.OpenWAL(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		coord, err := ingest.New(sys, w, ingest.Config{
			Online: core.OnlineConfig{Seed: 9, SmallGroupFraction: 0.05},
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(New(sys, Config{Ingest: coord}).Handler())
		defer srv.Close()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			row := [][]json.RawMessage{{json.RawMessage(`"rb"`), json.RawMessage(`3.5`)}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ib, _ := json.Marshal(IngestRequest{Rows: row, BatchID: fmt.Sprintf("bench-%d", i)})
				resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(ib))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchQuery(b, srv.URL, body)
			}
		})
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkRawAnswer is one shard partial across the wire: encodeRaw on the
// shard plus DecodeRaw at the coordinator, for the shape of a traced
// groupby_scan answer (400 groups of a 4-column key, COUNT and SUM).
func BenchmarkRawAnswer(b *testing.B) {
	out := rawBenchOutcome()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRaw(encodeRaw(out)); err != nil {
			b.Fatal(err)
		}
	}
}

// rawBenchOutcome builds the partial BenchmarkRawAnswer moves: every
// accumulator set, every tenth group exact.
func rawBenchOutcome() *Outcome {
	res := engine.NewResult([]string{"p_type", "l_quantity", "o_ordermonth", "s_region"},
		[]engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}})
	for i := 0; i < 400; i++ {
		key := []engine.Value{
			engine.StringVal(fmt.Sprintf("p_type_%03d", i%25)),
			engine.IntVal(int64(i/25 + 1)),
			engine.StringVal(fmt.Sprintf("o_ordermonth_%03d", i%7)),
			engine.StringVal(fmt.Sprintf("s_region_%03d", i%5)),
		}
		g := res.Upsert(engine.EncodeKey(key), func() []engine.Value { return key })
		n, x := float64(i%13+1), 1234.5678*float64(i+1)
		copy(g.Vals, []float64{40 * n, 40 * x})
		copy(g.RawSum, []float64{n, x})
		copy(g.RawSumSq, []float64{n, x * x / n})
		copy(g.VarAcc, []float64{1560 * n, 1560 * x * x / n})
		g.RawRows, g.Exact = int64(n), i%10 == 0
	}
	res.RowsScanned, res.RowsMatched = 47000, 31000
	predicted, achieved := 0.05, 0.04
	return &Outcome{Result: res, RowsRead: 47000, Elapsed: 2 * time.Millisecond, Generation: 3,
		Plan: "smallgroup/0.5", Predicted: &predicted, Achieved: &achieved}
}
