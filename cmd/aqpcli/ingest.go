package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// The ingest subcommand's flags, declared at package level so that a test
// can list them.
var (
	ingestFlags     = flag.NewFlagSet("ingest", flag.ExitOnError)
	ingestAddr      = ingestFlags.String("addr", "http://localhost:8080", "aqpd base URL")
	ingestFile      = ingestFlags.String("file", "-", "CSV file of rows to append (\"-\" = stdin); columns in the view's order, no header unless -header")
	ingestHeader    = ingestFlags.Bool("header", false, "skip the first CSV line (a header row)")
	ingestBatchSize = ingestFlags.Int("batch-size", 500, "rows per ingest batch")
	ingestIDPrefix  = ingestFlags.String("id-prefix", "", "idempotency id prefix for batches (default: derived from the file name and start time)")
	ingestRetries   = ingestFlags.Int("retries", 10, "retries per batch on transient failures (503 backpressure, 5xx, transport errors); each retry reuses the batch's idempotency id")
)

// runIngest is the `aqpcli ingest` subcommand: stream CSV rows (a file or
// stdin) to a running aqpd's POST /v1/ingest in batches. The server's
// /v1/columns metadata supplies the column order and types, so plain CSV
// cells are encoded as the right JSON types. Each batch carries a derived
// idempotency id, and 503 backpressure is retried with the same id — safe to
// re-run after a partial failure.
func runIngest(args []string) {
	ingestFlags.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: aqpcli ingest [-addr URL] [-file rows.csv] [-header] [-batch-size N]")
		ingestFlags.PrintDefaults()
	}
	ingestFlags.Parse(args)
	if *ingestBatchSize < 1 {
		fatal(fmt.Errorf("invalid -batch-size %d: need at least 1 row per batch", *ingestBatchSize))
	}
	if *ingestRetries < 0 {
		fatal(fmt.Errorf("invalid -retries %d: must be >= 0", *ingestRetries))
	}

	cols, types, err := fetchSchema(*ingestAddr)
	if err != nil {
		fatal(err)
	}

	var in io.Reader = os.Stdin
	name := "stdin"
	if *ingestFile != "-" {
		f, err := os.Open(*ingestFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in, name = f, *ingestFile
	}
	if *ingestIDPrefix == "" {
		*ingestIDPrefix = fmt.Sprintf("%s-%d", name, time.Now().UnixNano())
	}

	r := csv.NewReader(in)
	r.FieldsPerRecord = len(cols)
	if *ingestHeader {
		if _, err := r.Read(); err != nil {
			fatal(fmt.Errorf("reading header: %w", err))
		}
	}

	var (
		batch   [][]json.RawMessage
		batchNo int
		total   int
		start   = time.Now()
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		id := fmt.Sprintf("%s-%d", *ingestIDPrefix, batchNo)
		if err := postBatch(*ingestAddr, id, cols, batch, *ingestRetries); err != nil {
			return err
		}
		total += len(batch)
		batchNo++
		batch = batch[:0]
		return nil
	}
	for line := 1; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		row := make([]json.RawMessage, len(cols))
		for i, cell := range rec {
			enc, err := encodeCSVCell(types[cols[i]], cell)
			if err != nil {
				fatal(fmt.Errorf("line %d, column %q: %w", line, cols[i], err))
			}
			row[i] = enc
		}
		batch = append(batch, row)
		if len(batch) >= *ingestBatchSize {
			if err := flush(); err != nil {
				fatal(err)
			}
		}
	}
	if err := flush(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "ingested %d rows in %d batches in %v (%.0f rows/sec)\n",
		total, batchNo, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
}

// fetchSchema reads the view's column order and types from GET /v1/columns.
func fetchSchema(addr string) ([]string, map[string]string, error) {
	resp, err := http.Get(strings.TrimRight(addr, "/") + "/v1/columns")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("GET /v1/columns: %s: %s", resp.Status, body)
	}
	var meta struct {
		Columns []string          `json:"columns"`
		Types   map[string]string `json:"types"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, nil, err
	}
	if len(meta.Columns) == 0 {
		return nil, nil, fmt.Errorf("server reported no columns")
	}
	return meta.Columns, meta.Types, nil
}

// encodeCSVCell turns one CSV cell into the JSON value the ingest endpoint
// expects for the column's type. A number is sent as the value it parses to,
// not as its text: Go accepts forms JSON does not (".5", "+5", "007").
func encodeCSVCell(typ, cell string) (json.RawMessage, error) {
	switch typ {
	case "INT":
		i, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("want an integer, got %q", cell)
		}
		return json.RawMessage(strconv.FormatInt(i, 10)), nil
	case "FLOAT":
		f, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("want a finite number, got %q", cell)
		}
		return json.RawMessage(strconv.FormatFloat(f, 'g', -1, 64)), nil
	default: // VARCHAR, or unknown types default to string
		return json.Marshal(cell)
	}
}

// ingestBackoff is the initial retry backoff when the server gives no
// Retry-After hint (doubled per retry, jittered). A variable so tests can
// collapse the waits.
var ingestBackoff = 250 * time.Millisecond

// postBatch sends one batch, retrying transient failures — 503 backpressure,
// other 5xx, and transport errors (a connection that died mid-request) — up
// to retries extra attempts, always with the same idempotency id: the server
// deduplicates batch_id, so a retry after an ambiguous failure cannot
// double-append. A 503's Retry-After hint overrides the local backoff.
// Non-503 4xx means the batch itself is bad and is never retried.
func postBatch(addr, id string, cols []string, rows [][]json.RawMessage, retries int) error {
	body, err := json.Marshal(map[string]any{
		"columns":  cols,
		"rows":     rows,
		"batch_id": id,
	})
	if err != nil {
		return err
	}
	backoff := ingestBackoff
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(jitterDelay(backoff))
			backoff *= 2
		}
		resp, err := http.Post(strings.TrimRight(addr, "/")+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("%s: %s", resp.Status, out)
			// The server knows how loaded it is; let its hint replace the
			// next doubling step.
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					backoff = time.Duration(secs) * time.Second
				}
			}
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("%s: %s", resp.Status, out)
		default:
			return fmt.Errorf("POST /v1/ingest (batch %s): %s: %s", id, resp.Status, out)
		}
	}
	return fmt.Errorf("POST /v1/ingest (batch %s): giving up after %d attempts: %w", id, retries+1, lastErr)
}

// jitterDelay spreads a backoff uniformly over [d, 2d) so synchronized
// clients (many aqpcli processes told to retry at once) desynchronise.
func jitterDelay(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + time.Duration(rand.Int63n(int64(d)))
}
