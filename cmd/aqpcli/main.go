// Command aqpcli is an interactive approximate-query shell: it generates a
// synthetic database (or loads one from CSV), runs a strategy's
// pre-processing phase — or, with -catalog-dir, restores its output the way
// aqpd starts up — and then answers SQL aggregation queries approximately,
// showing per-group confidence intervals, exactness flags and the rewritten
// UNION ALL sample query.
//
// Usage:
//
//	aqpcli -db tpch -z 2.0 -rows 200000 -rate 0.01
//	aqpcli -db sales -error-bound 0.05 -query "SELECT s_region, COUNT(*) FROM T GROUP BY s_region"
//	aqpcli -db sales -catalog-dir samples/ -query "SELECT store_region, COUNT(*) FROM T GROUP BY store_region"
//	> SELECT s_region, COUNT(*) FROM T GROUP BY s_region;
//	> \explain SELECT o_clerk, COUNT(*) FROM T GROUP BY o_clerk;
//	> \exact   SELECT p_brand, SUM(l_extendedprice) FROM T GROUP BY p_brand;
//	> \quit
//
// The `ingest` subcommand instead acts as a client for a running aqpd,
// streaming CSV rows to POST /v1/ingest in idempotent batches:
//
//	aqpcli ingest -addr http://localhost:8080 -file new_rows.csv -batch-size 500
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/metrics"
	"dynsample/internal/parallel"
	"dynsample/internal/scenario"
	"dynsample/internal/sqlparse"
)

// The flags, declared at package level so that a test can list them; the
// ingest subcommand's are in ingest.go.
var (
	dbKind   = flag.String("db", "tpch", "builtin database: "+strings.Join(scenario.BuiltinSpecs(), " or "))
	load     = flag.String("load", "", "load a single-table database from a CSV file instead of generating one")
	z        = flag.Float64("z", 2.0, "Zipf skew of every zipf column (>= 0)")
	rows     = flag.Int("rows", 200000, "fact rows (>= 1); the dimension tables scale with them")
	rate     = flag.Float64("rate", 0.01, "base sampling rate r, in (0, 1]")
	workers  = flag.Int("workers", parallel.DefaultWorkers(), "worker goroutines per query and for pre-processing (>= 1); 1 disables parallelism")
	strategy = flag.String("strategy", "smallgroup", "strategy: smallgroup or uniform")
	seed     = flag.Int64("seed", 42, "random seed")
	query    = flag.String("query", "", "run one query and exit")
	timeout  = flag.Duration("timeout", 0, "per-query deadline; 0 disables. Queries that would overrun degrade to the overall sample, then abort with an error")
	errBound = flag.Float64("error-bound", 0, "ask the planner for answers within this mean relative error, in (0, 1); 0 disables")
	tBound   = flag.Duration("time-bound", 0, "ask the planner for the most accurate plan predicted to finish within this duration; 0 disables")
	catDir   = flag.String("catalog-dir", "", "sample catalog directory, as aqpd's: restore its newest generation cut over this base, or pre-process and save generation 1")
)

func main() {
	// Subcommands run against a live aqpd instead of building a local system.
	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		runIngest(os.Args[2:])
		return
	}
	flag.Parse()
	// Fail fast on invalid parameters — before paying for data generation.
	if *rate <= 0 || *rate > 1 {
		fatal(fmt.Errorf("invalid -rate %g: the base sampling rate must be in (0, 1]", *rate))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("invalid -workers %d: must be >= 1", *workers))
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("invalid -timeout %v: must be >= 0 (0 disables the deadline)", *timeout))
	}
	if *errBound < 0 || *errBound >= 1 {
		fatal(fmt.Errorf("invalid -error-bound %g: must be in [0, 1) (0 disables)", *errBound))
	}
	if *tBound < 0 {
		fatal(fmt.Errorf("invalid -time-bound %v: must be >= 0 (0 disables)", *tBound))
	}
	bounds := core.Bounds{ErrorBound: *errBound, TimeBound: *tBound}
	cfg := core.SmallGroupConfig{BaseRate: *rate, Seed: *seed, Workers: *workers}
	switch *strategy {
	case "smallgroup":
	case "uniform":
		cfg.Columns = []string{}
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	strat := core.NewSmallGroup(cfg)
	if *load == "" {
		if err := scenario.CheckBuiltin(*dbKind, *rows, *z); err != nil {
			fatal(fmt.Errorf("invalid -db/-rows/-z: %w", err))
		}
	}

	var (
		db  *engine.Database
		err error
	)
	if *load != "" {
		fmt.Fprintf(os.Stderr, "loading %s...\n", *load)
		db, err = loadCSV(*load)
	} else {
		fmt.Fprintf(os.Stderr, "generating %s database (%d rows)...\n", *dbKind, *rows)
		db, err = scenario.Builtin(*dbKind, *rows, *z, *seed)
	}
	if err != nil {
		fatal(err)
	}

	// Start-up is aqpd's: ingest.Recover restores the newest usable catalog
	// generation, or pre-processes and saves the result as the next one.
	sys := core.NewSystem(db)
	var cat *catalog.Catalog
	if *catDir != "" {
		if cat, err = catalog.Open(*catDir, catalog.Options{}); err != nil {
			fatal(err)
		}
	}
	rec, err := ingest.Recover(sys, cat, nil, strat, *workers, ingest.Config{})
	if err != nil {
		fatal(err)
	}
	for _, sk := range rec.Skipped {
		fmt.Fprintf(os.Stderr, "aqpcli: skipping catalog generation %d: %v\n", sk.Generation, sk.Err)
	}
	switch {
	case rec.Source == "snapshot":
		fmt.Fprintf(os.Stderr, "restored sample generation %d from %s\n", rec.Generation, *catDir)
	case rec.SaveErr != nil:
		fmt.Fprintf(os.Stderr, "aqpcli: warning: samples built but not saved: %v\n", rec.SaveErr)
	case rec.Generation > 0:
		fmt.Fprintf(os.Stderr, "pre-processed (%s, r=%g); saved sample generation %d to %s\n", *strategy, *rate, rec.Generation, *catDir)
	default:
		fmt.Fprintf(os.Stderr, "pre-processed (%s, r=%g)\n", *strategy, *rate)
	}
	p, _ := sys.Prepared(strat.Name())
	fmt.Fprintf(os.Stderr, "ready: %d base rows, %d sample rows, pre-processing took %v\n",
		db.NumRows(), p.SampleRows(), sys.PreprocessTime(strat.Name()).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "columns: %s\n", strings.Join(firstN(db.Columns(), 12), ", ")+", ...")

	if *query != "" {
		if err := runQuery(sys, db, strat.Name(), *query, *timeout, bounds, false, false); err != nil {
			fatal(err)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\columns`:
			fmt.Println(strings.Join(db.Columns(), ", "))
		case strings.HasPrefix(line, `\explain `):
			if err := runQuery(sys, db, strat.Name(), strings.TrimPrefix(line, `\explain `), *timeout, bounds, true, false); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, `\exact `):
			if err := runQuery(sys, db, strat.Name(), strings.TrimPrefix(line, `\exact `), *timeout, bounds, false, true); err != nil {
				fmt.Println("error:", err)
			}
		default:
			if err := runQuery(sys, db, strat.Name(), line, *timeout, bounds, false, false); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("> ")
	}
}

func runQuery(sys *core.System, db *engine.Database, strategy, sql string, timeout time.Duration, bounds core.Bounds, explain, compareExact bool) error {
	stmt, err := sqlparse.Parse(strings.TrimSuffix(sql, ";"))
	if err != nil {
		return err
	}
	compiled, err := sqlparse.Compile(stmt, db)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ans, err := sys.ApproxBoundsCtx(ctx, strategy, compiled.Query, bounds)
	if err != nil {
		return err
	}
	if explain && ans.Rewrite != nil {
		fmt.Println("-- rewritten query:")
		fmt.Println(ans.Rewrite.SQL())
		fmt.Println()
	}
	if d := ans.Plan; d != nil {
		fmt.Printf("-- plan %s: predicted error %.4f, achieved %.4f (%d candidates)\n",
			d.Chosen.Name, d.Chosen.PredictedError, d.AchievedError, len(d.Candidates))
		if explain {
			for _, c := range d.Candidates {
				fmt.Printf("--   %-32s %8d rows  err %.4f  %8s  feasible=%v\n", c.Name, c.Rows,
					c.PredictedError, time.Duration(c.PredictedLatencyMicros)*time.Microsecond, c.Feasible)
			}
		}
		for _, cv := range d.Caveats {
			fmt.Println("-- caveat:", cv)
		}
	}
	printAnswer(compiled, ans)
	degraded := ""
	if ans.Degraded {
		degraded = ", degraded to the overall sample to meet the deadline"
	}
	fmt.Printf("(%d groups, %d sample rows read, %v%s)\n",
		ans.Result.NumGroups(), ans.RowsRead, ans.Elapsed.Round(time.Microsecond), degraded)

	if compareExact {
		exact, d, err := sys.ExactCtx(ctx, compiled.Query)
		if err != nil {
			return err
		}
		acc, err := metrics.Compare(exact, ans.Result, 0)
		if err != nil {
			return err
		}
		fmt.Printf("exact: %d groups in %v | RelErr=%.4f PctGroupsMissed=%.1f%%\n",
			exact.NumGroups(), d.Round(time.Millisecond), acc.RelErr, acc.PctGroups)
	}
	return nil
}

// printAnswer renders the answer using the SELECT-list mapping, honouring
// the query's HAVING/ORDER BY/LIMIT; without ORDER BY, groups are shown
// largest first. Display is capped at 40 rows.
func printAnswer(c *sqlparse.Compiled, ans *core.Answer) {
	for _, o := range c.Outputs {
		fmt.Printf("%-22s", o.Name)
	}
	fmt.Println()
	groups := c.Present(ans.Result)
	if len(c.Order) == 0 {
		sort.SliceStable(groups, func(i, j int) bool {
			return groups[i].Vals[0] > groups[j].Vals[0]
		})
	}
	const limit = 40
	for i, g := range groups {
		if i == limit {
			fmt.Printf("... (%d more groups)\n", len(groups)-limit)
			break
		}
		key := engine.EncodeKey(g.Key)
		for _, o := range c.Outputs {
			switch o.Kind {
			case sqlparse.OutGroup:
				fmt.Printf("%-22s", g.Key[o.GroupIndex].String())
			case sqlparse.OutAgg:
				iv := ans.Interval(key, o.AggIndex)
				if g.Exact {
					fmt.Printf("%-22s", fmt.Sprintf("%.2f (exact)", g.Vals[o.AggIndex]))
				} else {
					fmt.Printf("%-22s", fmt.Sprintf("%.2f ±%.2f", g.Vals[o.AggIndex], iv.Width()/2))
				}
			case sqlparse.OutAvg:
				den := g.Vals[o.DenIndex]
				avg := 0.0
				if den != 0 {
					avg = g.Vals[o.NumIndex] / den
				}
				suffix := ""
				if g.Exact {
					suffix = " (exact)"
				}
				fmt.Printf("%-22s", fmt.Sprintf("%.2f%s", avg, suffix))
			}
		}
		fmt.Println()
	}
}

// loadCSV builds a single-table database from a CSV file with a header row.
func loadCSV(path string) (*engine.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	tbl, err := engine.ReadCSV(name, f)
	if err != nil {
		return nil, err
	}
	return engine.NewDatabase(name, tbl)
}

func firstN(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aqpcli:", err)
	os.Exit(1)
}
