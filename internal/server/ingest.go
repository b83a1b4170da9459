package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"dynsample/internal/engine"
	"dynsample/internal/ingest"
)

// IngestRequest is the body of POST /ingest: rows in the base view's column
// order (see GET /columns). BatchID (or, when absent, the client's
// X-Request-ID header) makes the request idempotent: retrying the same id
// within the server's idempotency window returns the original outcome
// instead of appending the rows twice.
type IngestRequest struct {
	// Columns, when present, must name the view columns in the exact order
	// the rows use. It exists so clients can assert their ordering
	// assumption; it does not reorder anything.
	Columns []string `json:"columns,omitempty"`
	// Rows are the values to append, one array per row, typed as the view
	// columns are (JSON strings for string columns, numbers for int and
	// float columns; int cells must be integral).
	Rows [][]json.RawMessage `json:"rows"`
	// BatchID is the idempotency key; empty falls back to the X-Request-ID
	// header.
	BatchID string `json:"batch_id,omitempty"`
}

// IngestResponse is the body of POST /ingest.
type IngestResponse struct {
	// Rows is how many rows the acknowledged batch appended.
	Rows int `json:"rows"`
	// Generation is the data generation after this batch (ingest batches
	// applied since startup); query responses echo the generation they
	// answered from.
	Generation uint64 `json:"generation"`
	// Duplicate is true when this batch id was already applied; the other
	// fields report the original application.
	Duplicate bool `json:"duplicate,omitempty"`
	// ReservoirSwaps and SmallGroupInserts report the batch's sample
	// maintenance effects (how many overall-sample slots it replaced, how
	// many rows went into small group tables).
	ReservoirSwaps    int `json:"reservoirSwaps"`
	SmallGroupInserts int `json:"smallGroupInserts"`
	// Drift is the common-set drift gauge after this batch; the server
	// schedules a background rebuild when it crosses the configured bound.
	Drift float64 `json:"drift"`
}

// ingest implements POST /v1/ingest: decode + type-check the rows against
// the view schema, hand them to the coordinator (WAL append + online sample
// maintenance), and report the batch's effect. Overload maps to 503 +
// Retry-After like query shedding; duplicates are a 200 with the original
// stats so retries are safe; WAL and apply failures are 500s so clients
// don't mistake a server fault for a bad batch.
func (s *Server) ingest(r *http.Request) (any, error) {
	ing := s.cfg.Ingest
	if ing == nil {
		return nil, unimplementedError{errors.New("ingestion not configured (start the server with -wal-dir)")}
	}
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequestf("bad request body: %w", err)
	}
	cols := s.sys.DB().Columns()
	if req.Columns != nil {
		if len(req.Columns) != len(cols) {
			return nil, badRequestf("columns has %d names, view has %d (%v)", len(req.Columns), len(cols), cols)
		}
		for i, name := range req.Columns {
			if err := engine.CheckColumnName(name); err != nil {
				return nil, badRequestError{err}
			}
			if name != cols[i] {
				return nil, badRequestf("columns[%d] = %q, view order is %v", i, name, cols)
			}
		}
	}
	rows, err := s.decodeIngestRows(cols, req.Rows)
	if err != nil {
		return nil, badRequestError{err}
	}
	id := req.BatchID
	if id == "" {
		id = sanitizeRequestID(r.Header.Get("X-Request-ID"))
	}
	st, err := ing.Ingest(id, rows)
	resp := IngestResponse{
		Rows:              st.Rows,
		Generation:        st.DataGeneration,
		Duplicate:         errors.Is(err, ingest.ErrDuplicate),
		ReservoirSwaps:    st.ReservoirSwaps,
		SmallGroupInserts: st.SmallGroupInserts,
		Drift:             st.Drift,
	}
	switch {
	case err == nil, resp.Duplicate:
		return resp, nil
	case errors.Is(err, ingest.ErrOverloaded):
		return nil, &UnavailableError{Code: CodeOverloaded, Err: err}
	case errors.Is(err, ingest.ErrDegraded):
		// A disk fault put ingest into read-only mode. Queries still serve
		// and the coordinator is re-probing the disk on its own, so this is
		// a retryable 503, not a 500: keep the batch and try again.
		return nil, &UnavailableError{Code: CodeIngestDegraded, After: 5 * time.Second, Err: err}
	case errors.Is(err, ingest.ErrUnavailable):
		// A server-side failure (WAL write/fsync, or a durably logged batch
		// that did not apply) — not the client's fault, so never 400: a
		// well-behaved client should keep the batch and retry later.
		return nil, err
	default:
		return nil, badRequestError{err}
	}
}

// decodeIngestRows converts JSON cells to typed engine values against the
// view schema (decodeCell).
func (s *Server) decodeIngestRows(cols []string, raw [][]json.RawMessage) ([][]engine.Value, error) {
	if len(raw) == 0 {
		return nil, errors.New("empty batch: rows is required")
	}
	types := make([]engine.Type, len(cols))
	for i, name := range cols {
		t, err := s.sys.DB().ColumnType(name)
		if err != nil {
			return nil, err
		}
		types[i] = t
	}
	rows := make([][]engine.Value, len(raw))
	for ri, cells := range raw {
		if len(cells) != len(cols) {
			return nil, fmt.Errorf("rows[%d] has %d values, view has %d columns (%v)", ri, len(cells), len(cols), cols)
		}
		row := make([]engine.Value, len(cells))
		for ci, cell := range cells {
			v, err := decodeCell(types[ci], cell)
			if err != nil {
				return nil, fmt.Errorf("rows[%d][%d] (column %q): %w", ri, ci, cols[ci], err)
			}
			row[ci] = v
		}
		rows[ri] = row
	}
	return rows, nil
}

// decodeCell converts one cell — a JSON value as the body's decoder split it
// off, valid and without space around it — to the column's type. The usual
// forms are parsed where they lie: a number literal for a numeric column, a
// string without escapes for a string column. Anything else (an escape, null,
// a number in quotes, a value of the wrong kind) goes through decodeCellJSON,
// whose answers and error texts these are.
func decodeCell(t engine.Type, cell json.RawMessage) (engine.Value, error) {
	if len(cell) == 0 {
		return decodeCellJSON(t, cell)
	}
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	number := (cell[0] == '-' || digit(cell[0])) && digit(cell[len(cell)-1]) // else space follows it
	switch {
	case t == engine.String && plainString(cell):
		return engine.StringVal(string(cell[1 : len(cell)-1])), nil
	case t == engine.Int && number:
		i, err := strconv.ParseInt(string(cell), 10, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("want an integer, got %s", cell)
		}
		return engine.IntVal(i), nil
	case t == engine.Float && number:
		f, err := strconv.ParseFloat(string(cell), 64)
		if err != nil {
			return engine.Value{}, err
		}
		return engine.FloatVal(f), nil
	}
	return decodeCellJSON(t, cell)
}

// plainString reports whether cell is a JSON string that stands for its own
// bytes: no escape, and no invalid UTF-8 for the decoder to replace.
func plainString(cell []byte) bool {
	n := len(cell)
	if n < 2 || cell[0] != '"' || cell[n-1] != '"' {
		return false
	}
	for _, c := range cell[1 : n-1] {
		if c == '\\' || c == '"' || c < ' ' {
			return false
		}
	}
	return utf8.Valid(cell[1 : n-1])
}

// decodeCellJSON is decodeCell by encoding/json alone: one Unmarshal per cell.
// Numbers go through json.Number, so an int column rejects a non-integral
// number instead of truncating it.
func decodeCellJSON(t engine.Type, cell json.RawMessage) (engine.Value, error) {
	switch t {
	case engine.String:
		var s string
		if err := json.Unmarshal(cell, &s); err != nil {
			return engine.Value{}, fmt.Errorf("want a JSON string, got %s", cell)
		}
		return engine.StringVal(s), nil
	case engine.Int:
		var n json.Number
		if err := json.Unmarshal(cell, &n); err != nil {
			return engine.Value{}, fmt.Errorf("want a JSON integer, got %s", cell)
		}
		i, err := n.Int64()
		if err != nil {
			return engine.Value{}, fmt.Errorf("want an integer, got %s", n)
		}
		return engine.IntVal(i), nil
	case engine.Float:
		var n json.Number
		if err := json.Unmarshal(cell, &n); err != nil {
			return engine.Value{}, fmt.Errorf("want a JSON number, got %s", cell)
		}
		f, err := n.Float64()
		if err != nil {
			return engine.Value{}, err
		}
		return engine.FloatVal(f), nil
	default:
		return engine.Value{}, fmt.Errorf("unsupported column type %v", t)
	}
}
