package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"

	"dynsample/internal/engine"
)

// IngestRequest is the body of POST /v1/ingest as encoding/json reads it,
// for tests that build bodies from values and for referenceIngest.
type IngestRequest struct {
	Columns []string            `json:"columns,omitempty"`
	Rows    [][]json.RawMessage `json:"rows"`
	BatchID string              `json:"batch_id,omitempty"`
}

// referenceIngest is the body decode parseIngest replaced, kept as what
// FuzzIngestBody holds it to: encoding/json's strict decode of the whole
// body (decodeBody), the columns assertion, then each cell through one
// json.Unmarshal (decodeCellJSON).
func referenceIngest(body []byte, db *engine.Database) ([][]engine.Value, string, error) {
	cols := db.Columns()
	var req IngestRequest
	if err := decodeBody(httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)), &req); err != nil {
		return nil, "", err
	}
	if req.Columns != nil {
		if len(req.Columns) != len(cols) {
			return nil, "", badRequestf("columns has %d names, view has %d (%v)", len(req.Columns), len(cols), cols)
		}
		for i, name := range req.Columns {
			if err := engine.CheckColumnName(name); err != nil {
				return nil, "", badRequestError{err}
			}
			if name != cols[i] {
				return nil, "", badRequestf("columns[%d] = %q, view order is %v", i, name, cols)
			}
		}
	}
	if len(req.Rows) == 0 {
		return nil, "", badRequestf("empty batch: rows is required")
	}
	types := make([]engine.Type, len(cols))
	for i, name := range cols {
		types[i], _ = db.ColumnType(name)
	}
	rows := make([][]engine.Value, len(req.Rows))
	for ri, cells := range req.Rows {
		if len(cells) != len(cols) {
			return nil, "", badRequestf("rows[%d] has %d values, view has %d columns (%v)", ri, len(cells), len(cols), cols)
		}
		rows[ri] = make([]engine.Value, len(cells))
		for ci, cell := range cells {
			v, err := decodeCellJSON(types[ci], cell)
			if err != nil {
				return nil, "", badRequestf("rows[%d][%d] (column %q): %w", ri, ci, cols[ci], err)
			}
			rows[ri][ci] = v
		}
	}
	return rows, req.BatchID, nil
}

// ParseIngest and ReferenceIngest reach both body decodes from package
// server_test, whose fuzz test and benchmark run over the tpch view
// (internal/scenario, which builds it, imports this package).
func ParseIngest(body []byte, db *engine.Database) ([][]engine.Value, string, error) {
	return parseIngest(body, nil, db)
}

var ReferenceIngest = referenceIngest

// IsBadRequest reports whether err answers 400 bad_request.
func IsBadRequest(err error) bool {
	var bad badRequestError
	return errors.As(err, &bad)
}
