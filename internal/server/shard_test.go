package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynsample/internal/binio"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/ingest"
	"dynsample/internal/randx"
)

// shardServer boots the fixture system in shard mode (slot 1 of 4).
func shardServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys := testSystem(t, core.SmallGroupConfig{Workers: 2})
	srv := httptest.NewServer(New(sys, Config{Shards: 4, ShardID: 1}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// rawAnswer posts a raw query to srv and decodes the frame it answers with.
func rawAnswer(t *testing.T, srv *httptest.Server, path string, req QueryRequest) (*Outcome, []byte) {
	t.Helper()
	req.Raw = true
	resp, body := post(t, srv, path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("raw answer sent as %q", ct)
	}
	out, err := DecodeRaw(body)
	if err != nil {
		t.Fatalf("raw answer does not decode: %v", err)
	}
	if again := encodeRaw(out); !bytes.Equal(again, body) {
		t.Error("a decoded raw answer re-encodes to other bytes")
	}
	return out, body
}

func TestRawQueryResponse(t *testing.T) {
	srv := shardServer(t)
	out, _ := rawAnswer(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region",
	})
	res := out.Result
	if res.NumGroups() == 0 {
		t.Fatal("raw result has no groups")
	}
	if len(res.GroupBy) != 1 || res.GroupBy[0] != "region" {
		t.Errorf("raw groupBy = %v", res.GroupBy)
	}
	if len(res.Aggs) != 2 {
		t.Errorf("raw aggs = %v", res.Aggs)
	}
	if out.RowsRead <= 0 || out.Generation != 0 || out.Predicted != nil {
		t.Errorf("raw scalars: %d rows read, generation %d, predicted %v", out.RowsRead, out.Generation, out.Predicted)
	}
	// The raw accumulators must be merge-ready: every estimated group needs
	// variance state for the coordinator to rebuild intervals.
	sawVar := false
	for _, g := range res.Groups() {
		if !g.Exact {
			for _, v := range g.VarAcc {
				if v > 0 {
					sawVar = true
				}
			}
		}
		if g.RawRows <= 0 {
			t.Errorf("group %v has no raw row count", g.Key)
		}
	}
	if !sawVar {
		t.Error("no variance accumulators survived the wire")
	}

	// A bounded query carries its plan and both error figures.
	out, _ = rawAnswer(t, srv, "/v1/query", QueryRequest{
		SQL:        "SELECT region, COUNT(*) FROM T GROUP BY region",
		ErrorBound: 0.5,
	})
	if out.Plan == "" || out.Predicted == nil || out.Achieved == nil {
		t.Errorf("bounded raw answer: plan %q, predicted %v, achieved %v", out.Plan, out.Predicted, out.Achieved)
	}
}

func TestRawExactResponse(t *testing.T) {
	srv := shardServer(t)
	out, _ := rawAnswer(t, srv, "/v1/exact", QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
	})
	var total float64
	for _, g := range out.Result.Groups() {
		total += g.Vals[0]
	}
	if total != 20000 {
		t.Errorf("exact raw COUNT total = %v, want 20000", total)
	}
}

// TestRawFrameRefusesDamage: a raw answer cut short at any byte, with a byte
// flipped, with bytes past its frame, or of another version is an error,
// never a partial Outcome.
func TestRawFrameRefusesDamage(t *testing.T) {
	srv := shardServer(t)
	_, b := rawAnswer(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region",
	})
	for n := 0; n < len(b); n++ {
		if _, err := DecodeRaw(b[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes decoded", n, len(b))
		}
	}
	flipped := append([]byte(nil), b...)
	flipped[len(b)/2] ^= 0x10
	if _, err := DecodeRaw(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("a flipped byte: %v", err)
	}
	if _, err := DecodeRaw(append(b[:len(b):len(b)], '\n')); err == nil || !strings.Contains(err.Error(), "not one frame") {
		t.Errorf("a byte past the frame: %v", err)
	}
	payload, _ := binio.ParseFrame(b, len(b))
	other := append([]byte{rawVersion + 1}, payload[1:]...)
	if _, err := DecodeRaw(binio.AppendFrame(nil, other)); err == nil ||
		!strings.Contains(err.Error(), "frame version 2, this build reads version 1") {
		t.Errorf("another version: %v", err)
	}
}

// FuzzDecodeRaw holds DecodeRaw to its contract on arbitrary bytes: an
// Outcome or an error, never a panic, and an accepted frame re-encodes to
// the bytes it was read from. Each input is tried as it is and as the payload
// of a frame with a good checksum, which a random flip almost never has. The
// seeds are a single node's real answers, as frames and as payloads.
func FuzzDecodeRaw(f *testing.F) {
	be := local{New(testSystem(f, core.SmallGroupConfig{Workers: 2}), Config{Shards: 4, ShardID: 1})}
	countSum := &engine.Query{GroupBy: []string{"region"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "amount"}}}
	empty := *countSum
	empty.Where = []engine.Predicate{engine.NewIn("region", engine.StringVal("nowhere"))}
	for _, seed := range []struct {
		q     *engine.Query
		req   QueryRequest
		exact bool
	}{
		{q: countSum}, // estimated and exact groups
		{q: countSum, req: QueryRequest{ErrorBound: 0.5}}, // a plan and its error figures
		{q: countSum, exact: true},                        // a base scan
		{q: &empty},                                       // no group
	} {
		exec := be.Query
		if seed.exact {
			exec = be.Exact
		}
		out, err := exec(context.Background(), seed.q, &seed.req)
		if err != nil {
			f.Fatal(err)
		}
		frame := encodeRaw(out)
		payload, _ := binio.ParseFrame(frame, len(frame))
		f.Add(frame)
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, binio.AppendFrame(nil, in)} {
			out, err := DecodeRaw(b)
			if err != nil {
				continue
			}
			if again := encodeRaw(out); !bytes.Equal(again, b) {
				t.Fatalf("accepted %x\nre-encodes to %x", b, again)
			}
		}
	})
}

func TestShardSummaryEndpoint(t *testing.T) {
	srv := shardServer(t)
	get := func() *core.ShardStats {
		resp, err := http.Get(srv.URL + "/v1/shard")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/shard status %d", resp.StatusCode)
		}
		var st core.ShardStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st
	}
	st := get()
	if st.ShardID != 1 || st.Shards != 4 {
		t.Errorf("shard slot = %d/%d, want 1/4", st.ShardID, st.Shards)
	}
	if st.Rows != 20000 || st.SampleRows <= 0 || st.ScanRowsPerSecond <= 0 {
		t.Errorf("summary = %+v", st)
	}
	if _, ok := st.Columns["region"]; !ok {
		t.Error("region column not summarised")
	}
	// Second fetch at the same generation must serve the cache (same values).
	st2 := get()
	if st2.Generation != st.Generation || st2.Rows != st.Rows {
		t.Errorf("cached summary differs: %+v vs %+v", st2, st)
	}
}

func TestShardEndpointAbsentOutsideShardMode(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/shard outside shard mode = %d, want 404", resp.StatusCode)
	}
}

// TestShardBodyCutTruncatesResponse proves the byte-truncation fault is
// observable client-side as an unexpected EOF mid-body, which is what the
// coordinator's decoder must treat as a transient shard failure.
func TestShardBodyCutTruncatesResponse(t *testing.T) {
	srv := shardServer(t)
	t.Cleanup(faults.Reset)
	faults.SetCut(faults.PointShardBody, faults.CutAfter(0, 10))
	resp, body := post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
		Raw: true,
	})
	resp.Body.Close()
	if _, err := DecodeRaw(body); err == nil {
		t.Fatal("truncated body still decoded to a full raw answer")
	}
}

// TestRetryAfterJitter is the satellite regression test: shed 503s must
// spread their Retry-After over [secs, 2·secs] rather than synchronizing
// every rejected client on the same second.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		secs := retryAfterSecs(time.Second)
		if secs < 1 || secs > 2 {
			t.Fatalf("retryAfterSecs(1s) = %d, want in [1, 2]", secs)
		}
		seen[secs] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("no jitter: saw %v, want both 1 and 2 over 200 draws", seen)
	}
	for i := 0; i < 50; i++ {
		if secs := retryAfterSecs(4 * time.Second); secs < 4 || secs > 8 {
			t.Fatalf("retryAfterSecs(4s) = %d, want in [4, 8]", secs)
		}
		if secs := retryAfterSecs(0); secs < 1 || secs > 2 {
			t.Fatalf("retryAfterSecs(0) = %d, want the 1s default in [1, 2]", secs)
		}
	}
}

// TestShedRetryAfterHeaderJittered drives the real admission gate and
// checks the emitted header stays within the jitter envelope and matches
// the body's retry_after_ms.
func TestShedRetryAfterHeaderJittered(t *testing.T) {
	sys := testSystem(t, core.SmallGroupConfig{})
	blocked := New(sys, Config{MaxInflight: 1})
	// Fill the only admission slot so the next request sheds.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	held := make(chan struct{})
	go blocked.pipe.admit("query", func(w http.ResponseWriter, r *http.Request) {
		close(held)
		<-release
	})(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	<-held
	rec := httptest.NewRecorder()
	blocked.pipe.admit("query", func(http.ResponseWriter, *http.Request) {
		t.Error("shed request reached the handler")
	})(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var er ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	ra := rec.Header().Get("Retry-After")
	if ra != "1" && ra != "2" {
		t.Errorf("Retry-After = %q, want within [1, 2]", ra)
	}
	if want := ra + "000"; strconv.FormatInt(er.Error.RetryAfterMS, 10) != want {
		t.Errorf("retry_after_ms = %d, want %s, the header's seconds", er.Error.RetryAfterMS, want)
	}
}

// TestShardSummaryFollowsARebuild: a rebuild swaps the served family, whose
// sample size and scan rate GET /v1/shard reports, without moving
// the data generation. The summary must be the served family's after it, not
// the one cached before.
func TestShardSummaryFollowsARebuild(t *testing.T) {
	sgCfg := core.SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 2000, Workers: 2}
	sys := testSystem(t, sgCfg)
	w, err := ingest.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	coord, err := ingest.New(sys, w, ingest.Config{Online: core.OnlineConfig{Seed: 3}, DriftBound: -1})
	if err != nil {
		t.Fatal(err)
	}
	sgCfg.Seed = 1
	srv := httptest.NewServer(New(sys, Config{Shards: 2, ShardID: 0, Ingest: coord, Rebuild: RebuildConfig{Strategy: core.NewSmallGroup(sgCfg)}}).Handler())
	t.Cleanup(srv.Close)

	// About a tenth of the base, in batches, rare regions among them.
	rng := randx.New(5)
	for b := 0; b < 10; b++ {
		rows := make([][]engine.Value, 200)
		for i := range rows {
			rows[i] = []engine.Value{engine.StringVal("n" + string(rune('a'+rng.Intn(26)))), engine.FloatVal(rng.Float64() * 100)}
		}
		if _, err := coord.Ingest("b-"+strconv.Itoa(b), rows); err != nil {
			t.Fatal(err)
		}
	}
	summary := func() core.ShardStats {
		t.Helper()
		resp, body := get(t, srv, "/v1/shard")
		var st core.ShardStats
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("GET /v1/shard: %d %s", resp.StatusCode, body)
		}
		return st
	}
	served := func() core.Prepared {
		p, _ := sys.Prepared(DefaultStrategy)
		return p
	}
	if st := summary(); st.SampleRows != served().SampleRows() {
		t.Fatalf("before the rebuild: sample_rows %d, the served family holds %d", st.SampleRows, served().SampleRows())
	}
	before := served()
	if resp, body := post(t, srv, "/v1/admin/rebuild", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, body)
	}
	if served() == before || served().SampleRows() == before.SampleRows() {
		t.Fatalf("the rebuild kept a family of %d sample rows: the test shows nothing", before.SampleRows())
	}
	if st := summary(); st.SampleRows != served().SampleRows() || st.Generation != sys.DataGeneration() {
		t.Fatalf("after the rebuild: sample_rows %d at generation %d, the served family holds %d at %d",
			st.SampleRows, st.Generation, served().SampleRows(), sys.DataGeneration())
	}
}
