package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"dynsample/internal/engine"
	"dynsample/internal/ingest"
)

// IngestResponse is the body of POST /v1/ingest.
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

// ingest implements POST /v1/ingest: parse the body straight into rows
// typed as the view's columns (parseIngest), hand them to the coordinator
// (WAL append + online sample maintenance), and report the batch's effect.
// Overload maps to 503 + Retry-After like query shedding; duplicates are a
// 200 with the original stats so retries are safe; WAL and apply failures
// are 500s so clients don't mistake a server fault for a bad batch.
func (s *Server) ingest(r *http.Request) (any, error) {
	ing := s.cfg.Ingest
	if ing == nil {
		return nil, unimplementedError{errors.New("ingestion not configured (start the server with -wal-dir)")}
	}
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxBody)+bytes.MinRead))
	_, readErr := body.ReadFrom(r.Body)
	rows, id, err := parseIngest(body.Bytes(), readErr, s.sys.DB())
	if err != nil {
		return nil, err
	}
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

// parseIngest reads a POST /v1/ingest body in one pass, from bytes to rows
// typed as the view's columns are. The body is one object: "rows", one
// array per row in the view's column order (see GET /v1/columns), typed as
// the columns are (JSON strings for string columns, numbers for int and
// float columns; int cells must be integral; null is no value of any type);
// "columns", when present, the view's names in that order, an assertion
// that reorders nothing; and "batch_id", the idempotency key (empty falls
// back to the X-Request-ID header), so that retrying a batch within the
// server's idempotency window returns its original outcome instead of
// appending its rows twice.
//
// It accepts what encoding/json's strict decode of that object accepted
// (field names matched case-insensitively, an unknown one refused) and
// refuses the rest with that decode's error texts and in its order: a
// syntax error anywhere, then the first value of a wrong type or unknown
// field, then data after the object; then the columns assertion, then the
// first bad row or cell. readErr is the error that cut the body short, if
// one did.
func parseIngest(body []byte, readErr error, db *engine.Database) ([][]engine.Value, string, error) {
	cols := db.Columns()
	p := &ingestParser{b: body, eof: cmp.Or(readErr, io.EOF), cols: cols, types: make([]engine.Type, len(cols)), strs: make(map[string]string, 256)}
	for i, c := range cols {
		p.types[i], _ = db.ColumnType(c) // a column the view lists
	}
	err := p.parse()
	if err == nil && p.saved == nil && (p.ws() || readErr != nil) {
		err = errors.New("data after the JSON object")
	}
	if err = cmp.Or(err, p.saved); err != nil {
		return nil, "", badRequestf("bad request body: %w", err)
	}
	if p.columns != nil && len(p.columns) != len(cols) {
		return nil, "", badRequestf("columns has %d names, view has %d (%v)", len(p.columns), len(cols), cols)
	}
	for i, name := range p.columns {
		if err := engine.CheckColumnName(name); err != nil {
			return nil, "", badRequestError{err}
		}
		if name != cols[i] {
			return nil, "", badRequestf("columns[%d] = %q, view order is %v", i, name, cols)
		}
	}
	switch {
	case p.nrows == 0:
		return nil, "", badRequestf("empty batch: rows is required")
	case p.rowsErr != nil:
		return nil, "", badRequestError{p.rowsErr}
	}
	rows := make([][]engine.Value, p.nrows)
	for i := range rows {
		rows[i] = p.vals[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
	}
	return rows, p.batchID, nil
}

// ingestParser is parseIngest's state: the body and where it has got to,
// the fields read so far, and the first error of each kind.
//
// eof is what the body ending is: io.EOF before its value,
// io.ErrUnexpectedEOF in it, or the error that cut the read short. saved is
// the first value of a wrong type or unknown field, as encoding/json saves
// it. vals, nrows and rowsErr are the cells (row after row), the rows and
// the first bad row or cell of the last "rows"; strs holds one Go string
// for each distinct one.
type ingestParser struct {
	b                   []byte
	i, nrows            int
	eof, saved, rowsErr error
	cols, columns       []string
	types               []engine.Type
	batchID             string
	vals                []engine.Value
	strs                map[string]string
}

// syntaxError carries a syntax error, or the body ending, out of the
// parser's descent to parse.
type syntaxError struct{ err error }

// maxDepth is how deeply encoding/json lets arrays and objects nest, and
// maxRowGuess bounds the rows a batch's cells are allocated for before
// they are read.
const maxDepth, maxRowGuess = 10000, 4096

// parse parses the body's one value: the request object, or a value of
// another kind, which is a wrong type (null, the empty request, is not).
func (p *ingestParser) parse() (err error) {
	defer func() {
		switch e := recover().(type) {
		case nil:
		case syntaxError:
			err = e.err
		default:
			panic(e) // a bug
		}
	}()
	if p.next(); p.eof == io.EOF {
		p.eof = io.ErrUnexpectedEOF
	}
	if p.want('{', 0, "Go value of type server.IngestRequest") {
		p.container(func(_ int, key []byte, plain bool) {
			switch name := []byte(unquote(key, plain)); {
			case bytes.EqualFold(name, []byte("rows")):
				p.rows()
			case bytes.EqualFold(name, []byte("columns")):
				p.columnNames()
			case bytes.EqualFold(name, []byte("batch_id")):
				if p.want('"', 1, "Go struct field IngestRequest.batch_id of type string") {
					p.batchID = unquote(p.str())
				}
			default:
				p.saved = cmp.Or(p.saved, fmt.Errorf("json: unknown field %q", name))
				p.skip(1)
			}
		})
	}
	return nil
}

// columnNames parses "columns". As encoding/json does, it reuses the slice
// an earlier "columns" left, so a null name keeps what that slot held.
func (p *ingestParser) columnNames() {
	const place = "Go struct field IngestRequest.columns of type "
	if p.next() == 'n' {
		p.columns = nil
	}
	if p.want('[', 1, place+"[]string") {
		names := p.columns[:0]
		p.container(func(i int, _ []byte, _ bool) {
			if names = slices.Grow(names[:i], 1)[:i+1]; p.want('"', 2, place+"string") {
				names[i] = unquote(p.str())
			}
		})
		if len(names) == 0 {
			names = []string{}
		}
		p.columns = names
	}
}

// rows parses "rows", row after row, each cell typed as its column is.
func (p *ingestParser) rows() {
	const place = "Go struct field IngestRequest.rows of type "
	if p.vals, p.nrows, p.rowsErr = p.vals[:0], 0, nil; p.want('[', 1, place+"[][]json.RawMessage") {
		p.container(func(ri int, _ []byte, _ bool) {
			start, n, cellErr := p.i, 0, error(nil)
			if p.nrows++; p.want('[', 2, place+"[]json.RawMessage") { // null: a row of no cells
				p.container(func(ci int, _ []byte, _ bool) { p.cell(ri, ci, &cellErr); n++ })
			}
			if n != len(p.cols) { // the row's length goes before its cells
				cellErr = fmt.Errorf("rows[%d] has %d values, view has %d columns (%v)", ri, n, len(p.cols), p.cols)
			}
			if p.rowsErr = cmp.Or(p.rowsErr, cellErr); ri == 0 { // size the batch by its first row
				p.vals = slices.Grow(p.vals, min((len(p.b)-p.i)/(p.i-start+1), maxRowGuess)*len(p.cols))
			}
		})
	}
}

// cell parses cell ci of row ri where it lies: a string without escapes
// in a string column (one Go string for each distinct one in the batch), a
// number literal in a numeric one. Any other cell goes through
// decodeCellJSON, whose answers and error texts these are. Its error goes
// to *cellErr, the row's first.
func (p *ingestParser) cell(ri, ci int, cellErr *error) {
	c := p.next()
	start := p.i
	_, plain := p.skip(3)
	if ci >= len(p.types) || p.rowsErr != nil || *cellErr != nil {
		return
	}
	tok, t, v, err := p.b[start:p.i], p.types[ci], engine.Value{}, error(nil)
	switch number := c == '-' || '0' <= c && c <= '9'; {
	case t == engine.String && plain && utf8.Valid(tok):
		s, ok := p.strs[string(tok[1:len(tok)-1])]
		if !ok {
			s = string(tok[1 : len(tok)-1])
			p.strs[s] = s
		}
		v = engine.StringVal(s)
	case t != engine.String && number:
		v, err = numberVal(t, tok)
	default:
		v, err = decodeCellJSON(t, tok)
	}
	if err != nil {
		*cellErr = fmt.Errorf("rows[%d][%d] (column %q): %w", ri, ci, p.cols[ci], err)
	}
	p.vals = append(p.vals, v)
}

// want reports whether the value next, depth arrays and objects deep,
// starts with c, as its place wants. A value of another kind is skipped
// and, unless it is null, which leaves the place as it was, it is the error
// encoding/json saves for it there.
func (p *ingestParser) want(c byte, depth int, place string) bool {
	if p.next() == c {
		return true
	}
	if kind, _ := p.skip(depth); kind != "null" {
		p.saved = cmp.Or(p.saved, fmt.Errorf("json: cannot unmarshal %s into %s", kind, place))
	}
	return false
}

// container parses the array or object at p.i, calling each with an
// element's index, and in an object its key's token, once the element's
// value is next.
func (p *ingestParser) container(each func(i int, key []byte, plain bool)) {
	obj, end := p.b[p.i] == '{', p.b[p.i]+2 // ']' or '}'
	if p.i++; p.next() == end {
		p.i++
		return
	}
	for i := 0; ; i++ {
		key, plain := []byte(nil), false
		if obj {
			if p.next() != '"' {
				p.bad("looking for beginning of object key string")
			}
			if key, plain = p.str(); p.next() != ':' {
				p.bad("after object key")
			}
			p.i++
		}
		each(i, key, plain)
		switch p.next() {
		case end:
			p.i++
			return
		case ',':
			p.i++
		default:
			p.bad(afterElement[obj])
		}
	}
}

// literals are the JSON literals by their first byte, kinds the kinds
// encoding/json's type errors name for values by their first byte, and
// afterElement its scanner's context for a byte after an element of an
// array or an object.
var literals = map[byte]string{'t': "true", 'f': "false", 'n': "null"}
var kinds = map[byte]string{'[': "array", '{': "object", 't': "bool", 'f': "bool", 'n': "null"}
var afterElement = map[bool]string{false: "after array element", true: "after object key:value pair"}

// skip scans one value of any kind, depth arrays and objects deep, and
// names its kind as encoding/json's type errors do; plain reports a string
// that holds no escape.
func (p *ingestParser) skip(depth int) (kind string, plain bool) {
	switch c := p.next(); c {
	case '[', '{':
		if depth >= maxDepth {
			p.bad("exceeded max depth")
		}
		p.container(func(int, []byte, bool) { p.skip(depth + 1) })
		return kinds[c], false
	case '"':
		_, plain = p.str()
		return "string", plain
	case 't', 'f', 'n':
		lit := literals[c]
		for k := range lit {
			if p.end(); !p.at(lit[k]) {
				p.bad(fmt.Sprintf("in literal %s (expecting '%c')", lit, lit[k]))
			}
		}
		return kinds[c], false
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		if p.at('-'); !p.at('0') {
			p.digits("in numeric literal")
		}
		if p.at('.') {
			p.digits("after decimal point in numeric literal")
		}
		if p.at('e') || p.at('E') {
			_ = p.at('+') || p.at('-')
			p.digits("in exponent of numeric literal")
		}
		return "number", false
	}
	p.bad("looking for beginning of value")
	return "", false
}

// digits scans the run of digits that must come next; another byte is the
// scanner's error in context.
func (p *ingestParser) digits(context string) {
	if p.end(); p.b[p.i] < '0' || p.b[p.i] > '9' {
		p.bad(context)
	}
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
}

// str scans a string literal from its opening quote and returns its token,
// reporting whether it is plain, holding no escape.
func (p *ingestParser) str() (tok []byte, plain bool) {
	start := p.i
	for plain, p.i = true, p.i+1; ; p.i++ {
		for p.i < len(p.b) && p.b[p.i] >= ' ' && p.b[p.i] != '"' && p.b[p.i] != '\\' {
			p.i++
		}
		p.end()
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start:p.i], plain
		case c < ' ':
			p.bad("in string literal")
		default: // a backslash
			p.i++
			if p.end(); p.b[p.i] == 'u' {
				for k := 0; k < 4; k++ {
					p.i++
					if p.end(); !strings.ContainsRune("0123456789abcdefABCDEF", rune(p.b[p.i])) {
						p.bad(`in \u hexadecimal character escape`)
					}
				}
			} else if !strings.ContainsRune(`"\/bfnrt`, rune(p.b[p.i])) {
				p.bad("in string escape code")
			}
		}
		plain = false
	}
}

// at steps past the byte at p.i if it is c, reporting whether it was.
func (p *ingestParser) at(c byte) (ok bool) {
	if ok = p.i < len(p.b) && p.b[p.i] == c; ok {
		p.i++
	}
	return ok
}

// end stops the parse with p.eof if the body ends at p.i.
func (p *ingestParser) end() {
	if p.i == len(p.b) {
		panic(syntaxError{p.eof})
	}
}

// ws skips whitespace, reporting whether a byte follows it.
func (p *ingestParser) ws() bool {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
	return p.i < len(p.b)
}

// next skips whitespace and returns the byte after it.
func (p *ingestParser) next() byte {
	p.ws()
	p.end()
	return p.b[p.i]
}

// bad stops the parse with the syntax error encoding/json's scanner gives
// for the byte at p.i in context.
func (p *ingestParser) bad(context string) {
	panic(syntaxError{fmt.Errorf("invalid character %s %s", strconv.QuoteRune(rune(p.b[p.i])), context)})
}

// unquote is what a scanned string token stands for: its own bytes when
// plain and valid UTF-8, else encoding/json's reading of its escapes and
// invalid UTF-8.
func unquote(tok []byte, plain bool) (s string) {
	if plain && utf8.Valid(tok) {
		return string(tok[1 : len(tok)-1])
	}
	json.Unmarshal(tok, &s) // a scanned token: it cannot fail
	return s
}

// wants names what a cell of each column type must hold.
var wants = map[engine.Type]string{engine.String: "a JSON string", engine.Int: "a JSON integer", engine.Float: "a JSON number"}

// decodeCellJSON decodes a cell by encoding/json alone: one Unmarshal.
// Numbers go through json.Number, so an int column rejects a non-integral
// number instead of truncating it. Unmarshal takes null for "" or 0
// without a word; here it is no value of any type.
func decodeCellJSON(t engine.Type, cell []byte) (engine.Value, error) {
	var s string
	var into any = &s
	if t != engine.String {
		into = (*json.Number)(&s)
	}
	if string(cell) == "null" || json.Unmarshal(cell, into) != nil {
		return engine.Value{}, fmt.Errorf("want %s, got %s", wants[t], cell)
	}
	if t == engine.String {
		return engine.StringVal(s), nil
	}
	return numberVal(t, s)
}

// numberVal parses a number literal for an int or a float column, as
// json.Number's Int64 and Float64 do.
func numberVal[L string | []byte](t engine.Type, lit L) (engine.Value, error) {
	if t == engine.Int {
		i, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("want an integer, got %s", lit)
		}
		return engine.IntVal(i), nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return engine.FloatVal(f), err
}
