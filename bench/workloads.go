package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
	"dynsample/internal/server"
	"dynsample/internal/workload"
)

type kind int

const (
	queryOnly   kind = iota // op = query, no ingest path configured
	ingestOnly              // op = ingest batch, queries only for accuracy
	ingestMixed             // op = query while an open-loop writer ingests
)

// Fixed inputs shared by every workload. The database is always the embedded
// TPC-H z=2 spec with its committed seed; only the fact-row count varies.
const (
	specName      = "tpch"
	baseRate      = 0.01
	strategySeed  = 1
	onlineSeed    = 1
	querySeed     = 20030609 // seeds the query generators; not the run seed
	batchSeed     = 20030610 // seeds the ingest row payloads; not the run seed
	proxyRows     = 50_000   // fact rows of the database queries are drawn from
	boundedBound  = 0.15     // error_bound carried by the bounded quarter of dash_point's queries
	batchRows     = 200      // rows per ingest batch
	payloadPool   = 64       // distinct row payloads the batches cycle through
	measureColumn = "l_extendedprice"
)

// workloadDef is one workload's fixed parameters. Everything here is part of
// the benchmark's definition; the run seed only orders the queries of a pass.
type workloadDef struct {
	Name string
	Why  string
	Kind kind
	// Rows is the base fact-table size.
	Rows int
	// Clients is the number of closed-loop clients issuing the measured op.
	Clients int
	// Workers is SmallGroupConfig.Workers (per-query scan fan-out).
	Workers int
	// Queries describes the distinct query list: the measured ops of query
	// workloads, and the accuracy/exact probe of every workload.
	Queries querySpec
	// PassOps is the number of ops in one pass: on query workloads a whole
	// number of repeats of the distinct list, on ingest_only a chunk of
	// consecutive batches.
	PassOps int
	// RefOpsPerSec turns --seconds into a pass count (see passes): the op
	// rate measured once on the reference box and frozen here, so a run's
	// work is fixed by operation count and only nominally by time.
	RefOpsPerSec float64
	// RestartReps is how many recoveries restart_s is the median of.
	RestartReps int

	// Ingest workloads only. TailBatches land after the checkpoint, so a
	// recovery has both a snapshot delta and a WAL tail to replay.
	TailBatches int
	// WriterPerSec is ingestMixed's open-loop batch rate.
	WriterPerSec float64
}

// passes is the number of measured passes of a run asked to measure for about
// seconds: a fixed function of the definition, never of how fast the run goes.
func (d workloadDef) passes(seconds float64) int {
	return max(2, int(math.Round(seconds*d.RefOpsPerSec/float64(d.PassOps))))
}

// writerBatches is the fixed batch total ingest_mixed reaches before its
// rebuild: one and a half times what the writer posts during a phase of the
// nominal length, so the writer outlasts the queries on a slower host too; the
// remainder is posted unmeasured, and every run ends on the same table.
func (d workloadDef) writerBatches(seconds float64) int {
	return int(math.Ceil(1.5 * d.WriterPerSec * float64(d.passes(seconds)*d.PassOps) / d.RefOpsPerSec))
}

// querySpec shapes a distinct query list. Queries cycle through every
// combination of the grouping-column counts, predicate counts and COUNT/SUM.
type querySpec struct {
	N         int
	GroupCols []int
	Preds     []int
	// Columns is the pool grouping and predicate columns are drawn from.
	Columns []string
	// Bounded gives a quarter of the queries an error_bound, so the bounded
	// planner is on the request path.
	Bounded bool
	// Smallest narrows the list to the N smallest answers of 8·N candidates,
	// by how many groups each has on the proxy database. Latency tracks
	// answer size, so the queries of a list must be of similar size or the
	// slowest two or three alone decide p95 and it sits on a cliff; and the
	// smaller the answers, the larger the scan's share of the op and the
	// fewer groups the samples miss.
	Smallest bool
}

// Column pools. dash_point draws from low-cardinality columns so answers are
// a handful of groups; groupby_scan draws from the widest dimension columns.
var (
	dashColumns = []string{
		"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct", "l_tax",
		"p_mfgr", "s_region", "c_region", "c_mktsegment", "o_orderpriority",
		"o_orderstatus", "o_orderyear", "c_age_bucket", "s_acctbal_bucket",
	}
	scanColumns = []string{
		"l_quantity", "l_discount", "p_brand", "p_category", "p_container", "p_size",
		"p_type", "p_color", "p_retail_bucket", "s_nation", "s_city", "c_nation",
		"c_city", "o_ordermonth", "o_clerk",
	}
)

var (
	dashQueries = querySpec{N: 64, GroupCols: []int{1, 2}, Preds: []int{1, 2}, Columns: dashColumns, Bounded: true}
	scanQueries = querySpec{N: 32, GroupCols: []int{3, 4}, Preds: []int{1}, Columns: scanColumns, Smallest: true}
)

// workloads is the benchmark: four workloads, each stressing different layers.
var workloads = []workloadDef{
	{
		Name: "dash_point", Kind: queryOnly, Rows: 1_000_000, Clients: 2, Workers: 1,
		Queries: dashQueries, PassOps: 64 * 4, RefOpsPerSec: 1650, RestartReps: 5,
		Why: "64 one- and two-column dashboard queries, 2 clients: the smallest op served (10k-row sample scan, ~1 ms), where HTTP, parse, planning and encode weigh most, a fifth to a quarter of the op",
	},
	{
		Name: "groupby_scan", Kind: queryOnly, Rows: 2_000_000, Clients: 1, Workers: 2,
		Queries: scanQueries, PassOps: 32 * 2, RefOpsPerSec: 185, RestartReps: 5,
		Why: "32 three- and four-column group-bys over 2M rows, 1 client, 2 scan workers: 47k sample rows in 4 plan steps, ~400 groups per answer; scan, merge, intervals and answer assembly are 3/4 of the op",
	},
	{
		Name: "ingest_only", Kind: ingestOnly, Rows: 1_000_000, Clients: 2, Workers: 1,
		Queries: scanQueries, // only feed the accuracy probe and the traced replay
		PassOps: 100, RefOpsPerSec: 290, RestartReps: 2, TailBatches: 250,
		Why: "200-row batches through WAL fsync, online sample maintenance and publish, 2 clients: the write path does all the work, queries none",
	},
	{
		Name: "ingest_mixed", Kind: ingestMixed, Rows: 1_000_000, Clients: 1, Workers: 1,
		Queries: dashQueries, PassOps: 64 * 2, RefOpsPerSec: 640, RestartReps: 2, TailBatches: 250, WriterPerSec: 75,
		Why: "dash_point's queries from 1 client beside a 75 batch/s open-loop writer, a quarter of ingest_only's rate: what the ingest path costs readers",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// generateDB builds the TPC-H z=2 database with the given fact-row count.
func generateDB(rows int) (*engine.Database, error) {
	spec, err := scenario.BuiltinSpec(specName)
	if err != nil {
		return nil, err
	}
	spec.FactTable().Rows = rows
	return scenario.Generate(spec)
}

// queryOp is one distinct query: its SQL, the compiled shape for in-process
// replay, and the ready-to-send request body.
type queryOp struct {
	SQL     string
	Query   *engine.Query
	Bounded bool
	Body    []byte // POST /v1/query body, with error_bound when Bounded
	Exact   []byte // POST /v1/exact body
}

// buildQueries generates the workload's distinct query list. The queries are
// drawn against proxy, a small database of the same spec: the value domains
// are fixed by the spec, so the SQL is valid at every scale, the list is the
// same for every workload sharing a querySpec, and building it costs
// milliseconds instead of a scan of every column of the full table.
func buildQueries(proxy *engine.Database, qs querySpec) ([]queryOp, error) {
	var err error
	type combo struct {
		g, p int
		agg  engine.AggKind
	}
	var combos []combo
	for _, g := range qs.GroupCols {
		for _, p := range qs.Preds {
			combos = append(combos, combo{g, p, engine.Count}, combo{g, p, engine.Sum})
		}
	}
	gens := make([]*workload.Generator, len(combos))
	for i, c := range combos {
		gens[i], err = workload.NewGenerator(proxy, workload.Config{
			GroupingColumns: c.g,
			Predicates:      c.p,
			MassSelectivity: true,
			Aggregate:       c.agg,
			Measures:        []string{measureColumn},
			Columns:         qs.Columns,
			Seed:            querySeed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("query generator %+v: %w", c, err)
		}
	}
	// Candidates, distinct, cycling through the combinations.
	want := qs.N
	if qs.Smallest {
		want = 8 * qs.N
	}
	seen := make(map[string]bool, want)
	cands := make([]*engine.Query, 0, want)
	for i := 0; len(cands) < want; i++ {
		if i > 100*want {
			return nil, fmt.Errorf("column pool too small for %d distinct queries", want)
		}
		q := gens[i%len(gens)].Query()
		if sql := q.String(); !seen[sql] {
			seen[sql] = true
			cands = append(cands, q)
		}
	}
	if qs.Smallest {
		if cands, err = smallestAnswers(proxy, cands, qs.N); err != nil {
			return nil, err
		}
	}

	ops := make([]queryOp, 0, qs.N)
	for i, q := range cands {
		// The bounded quarter is every other query with the fewest grouping
		// columns: their groups are large enough for a sample plan to meet
		// the bound, so the planner enumerates candidates and picks a cheap
		// one. A wider group-by under the same bound falls back to an exact
		// scan, a 130 ms op among 1 ms ones.
		c := combos[i%len(combos)]
		op := queryOp{SQL: q.String(), Query: q, Bounded: qs.Bounded && c.g == qs.GroupCols[0] && (i/len(combos))%2 == 1}
		req := server.QueryRequest{SQL: op.SQL}
		if op.Exact, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if op.Bounded {
			req.ErrorBound = boundedBound
		}
		if op.Body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// smallestAnswers keeps the n candidates with the fewest groups on the proxy
// database, in their generated order.
func smallestAnswers(proxy *engine.Database, cands []*engine.Query, n int) ([]*engine.Query, error) {
	type sized struct{ idx, groups int }
	sizes := make([]sized, len(cands))
	for i, q := range cands {
		res, err := engine.ExecuteExactCtx(context.Background(), proxy, q)
		if err != nil {
			return nil, err
		}
		sizes[i] = sized{i, res.NumGroups()}
	}
	sort.SliceStable(sizes, func(a, b int) bool { return sizes[a].groups < sizes[b].groups })
	keep := sizes[:n]
	sort.Slice(keep, func(a, b int) bool { return keep[a].idx < keep[b].idx })
	out := make([]*engine.Query, n)
	for i, s := range keep {
		out[i] = cands[s.idx]
	}
	return out, nil
}

// passOrder returns one pass over n distinct queries, each repeated repeats
// times, shuffled by the run seed. Every pass of a run replays this order.
func passOrder(n, repeats int, seed int64) []int {
	order := make([]int, 0, n*repeats)
	for r := 0; r < repeats; r++ {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// batchSource produces ingest request bodies: payloadPool fixed 200-row
// payloads resampled from the proxy database's own rows, so ingested data
// follows the base distribution and never introduces a new dimension tuple.
// Batch i carries payload i mod payloadPool under a unique batch id. The
// batches do not depend on the run seed: the rows that arrive, and their
// order, decide which rare groups the grown table holds and which rows the
// samples keep, and the accuracy metrics would follow the seed instead of
// the system.
type batchSource struct {
	payloads [][]byte
	// values holds the first valuePayloads payloads as typed rows, for the
	// layers measured below the HTTP decode.
	values [][][]engine.Value
}

const valuePayloads = 8

func newBatchSource(db *engine.Database) (*batchSource, error) {
	cols := db.Columns()
	accs := make([]engine.ColumnAccessor, len(cols))
	for i, c := range cols {
		acc, err := db.Accessor(c)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	rng := rand.New(rand.NewSource(batchSeed))
	bs := &batchSource{payloads: make([][]byte, payloadPool)}
	row := make([]any, len(cols))
	for p := range bs.payloads {
		var buf bytes.Buffer
		var typed [][]engine.Value
		buf.WriteByte('[')
		for r := 0; r < batchRows; r++ {
			src := rng.Intn(db.NumRows())
			vals := make([]engine.Value, len(accs))
			for i, acc := range accs {
				vals[i] = acc.Value(src)
				switch v := vals[i]; v.T {
				case engine.Int:
					row[i] = v.I
				case engine.Float:
					row[i] = v.F
				default:
					row[i] = v.S
				}
			}
			b, err := json.Marshal(row)
			if err != nil {
				return nil, err
			}
			if r > 0 {
				buf.WriteByte(',')
			}
			buf.Write(b)
			if p < valuePayloads {
				typed = append(typed, vals)
			}
		}
		if p < valuePayloads {
			bs.values = append(bs.values, typed)
		}
		buf.WriteByte(']')
		bs.payloads[p] = buf.Bytes()
	}
	return bs, nil
}

// rows returns batch i as typed rows.
func (bs *batchSource) rows(i int) [][]engine.Value { return bs.values[i%len(bs.values)] }

// body returns the request body of batch i in the named phase.
func (bs *batchSource) body(phase string, i int) []byte {
	p := bs.payloads[i%len(bs.payloads)]
	b := make([]byte, 0, len(p)+48)
	b = append(b, `{"batch_id":"`...)
	b = append(b, phase...)
	b = append(b, '-')
	b = append(b, fmt.Sprintf("%06d", i)...)
	b = append(b, `","rows":`...)
	b = append(b, p...)
	return append(b, '}')
}
