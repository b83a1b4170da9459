package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
	"dynsample/internal/server"
)

// tpchView is the view the benchmark harness ingests into: the builtin
// tpch spec, here at 2 000 fact rows.
func tpchView(tb testing.TB) *engine.Database {
	tb.Helper()
	db, err := scenario.Builtin("tpch", 2000, 2.0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// tpchRows renders n rows of the view as the harness's batches carry them:
// each row one json.Marshal of its values, rows drawn every 7th.
func tpchRows(tb testing.TB, db *engine.Database, n int) [][]string {
	tb.Helper()
	out := make([][]string, n)
	for r := range out {
		for _, c := range db.Columns() {
			acc, err := db.Accessor(c)
			if err != nil {
				tb.Fatal(err)
			}
			var v any
			switch x := acc.Value(7 * r % db.NumRows()); x.T {
			case engine.Int:
				v = x.I
			case engine.Float:
				v = x.F
			default:
				v = x.S
			}
			b, _ := json.Marshal(v)
			out[r] = append(out[r], string(b))
		}
	}
	return out
}

// ingestBody is a POST /v1/ingest body over rows of rendered cells.
func ingestBody(id string, rows [][]string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"batch_id":%q,"rows":[`, id)
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[" + strings.Join(r, ",") + "]")
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// sameParse fails unless the one-pass parser and the encoding/json
// reference both refuse body with the same status and error text, or both
// accept it with the same batch id and rows, floats equal to the bit.
func sameParse(t *testing.T, body []byte, db *engine.Database) {
	t.Helper()
	got, gotID, gerr := server.ParseIngest(body, db)
	want, wantID, werr := server.ReferenceIngest(body, db)
	if (gerr == nil) != (werr == nil) || gerr != nil && (gerr.Error() != werr.Error() || server.IsBadRequest(gerr) != server.IsBadRequest(werr)) {
		t.Fatalf("body %q:\nerror %v\nwant  %v", body, gerr, werr)
	}
	if gotID != wantID || len(got) != len(want) {
		t.Fatalf("body %q: batch %q of %d rows, want %q of %d", body, gotID, len(got), wantID, len(want))
	}
	for i := range want {
		for j, w := range want[i] {
			if g := got[i][j]; g.T != w.T || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("body %q: rows[%d][%d] = %#v, want %#v", body, i, j, g, w)
			}
		}
	}
}

// FuzzIngestBody holds parseIngest, the one pass from body bytes to typed
// rows, to encoding/json's decode of the same body followed by one
// Unmarshal per cell: the same rows and batch id, or the same refusal.
func FuzzIngestBody(f *testing.F) {
	db := tpchView(f)
	rows := tpchRows(f, db, 2)
	base := ingestBody("b-1", rows)
	f.Add(base)
	// One cell replaced: 0 is an int column, 1 a float one, 4 a string one.
	for _, c := range []struct {
		col   int
		cells []string
	}{
		{0, []string{`-0`, `0`, `01`, `1.0`, `1e2`, `-12`, `"12"`, `9223372036854775807`, `9223372036854775808`, `null`, `true`, `[1]`, `{ "a" : 1 }`}},
		{1, []string{`-0`, `1E400`, `-1e-400`, `0.1e+2`, `1.`, `1e`, `-`, `"1.5"`, `"x"`, `null`, `1.5e-3`}},
		{4, []string{`""`, `"tab\there"`, `"\u00e9\ud800"`, `"\ud83d\ude00"`, `"é😀"`, "\"a\xffb\"", `"x\"y"`, `"\x"`, `"\u12G4"`, "\"a\x01\"", `null`, `7`}},
	} {
		for _, cell := range c.cells {
			r := append([]string(nil), rows[0]...)
			r[c.col] = cell
			f.Add(ingestBody("b-2", [][]string{r, rows[1]}))
		}
	}
	cells := "[" + strings.Join(rows[0], ",") + "]"
	names, _ := json.Marshal(db.Columns())
	for _, s := range []string{
		`{"ROWS":[` + cells + `],"Batch_ID":"x"}`,
		`{"row\u0073":[` + cells + `]}`,
		`{"rows":[[1]],"rows":[` + cells + `]}`,
		`{"rows":[` + cells + `],"rows":null}`,
		`{"batch_id":"a","batch_id":null,"rows":[` + cells + `]}`,
		`{"columns":` + string(names) + `,"rows":[` + cells + `]}`,
		`{"columns":["a","b"],"columns":[null],"columns":[null,null],"rows":[` + cells + `]}`,
		`{"columns":[],"rows":[` + cells + `]}`,
		`{"batchId":"x","rows":[` + cells + `]}`,
		`{"rows":[` + cells + `,null]}`,
		`{"rows":[` + cells + `,"x"],"columns":7}`,
		`{"rows":{},"batch_id":[1]}`,
		`{"rows":[]}`, `{}`, `null`, `[]`, `"x"`, `12`, `12x`, ``, " \n", `{"a" 1}`, `{"a":1,}`, `{,}`, `[1,]`, `tru`, `nul`, `{"a":fals}`,
		string(base) + " \n\t", string(base) + " x", string(base) + "{}", string(base) + "]",
	} {
		f.Add([]byte(s))
	}
	for i, c := range base {
		if strings.IndexByte(`{}[],:"`, c) >= 0 {
			f.Add(base[:i])
			f.Add(base[:i+1])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameParse(t, body, db)
	})
}

// FuzzDecodeCell is FuzzIngestBody with the body's frame fixed: one cell,
// the only row of a one-column view of each column type, so the fuzzer
// spends its inputs on the cell forms parseIngest takes where they lie and
// on those it hands to encoding/json.
func FuzzDecodeCell(f *testing.F) {
	var views [3]*engine.Database
	for t := range views {
		views[t] = engine.MustNewDatabase("cells", engine.NewTable("t", engine.NewColumn("c", engine.Type(t))))
	}
	for _, seed := range []string{
		`"plain"`, `""`, `"tab\there"`, `"é😀"`, `"\ud800"`, "\"a\xffb\"", `"123"`, `"1e3"`, `"x\"y"`,
		`0`, `-0`, `7`, `-12`, `1.0`, `1.5`, `1e2`, `1E400`, `-1e-400`, `9223372036854775807`, `9223372036854775808`,
		`null`, `true`, `false`, `{}`, `[1]`, ` 12 `, "\n\"s\"\t", `0.1e+2`,
	} {
		for t := uint8(0); t < 3; t++ {
			f.Add([]byte(seed), t)
		}
	}
	f.Fuzz(func(t *testing.T, cell []byte, typ uint8) {
		sameParse(t, append(append([]byte(`{"rows":[[`), cell...), "]]}"...), views[typ%3])
	})
}

// TestIngestNullNamesItsColumnType: a null cell is refused in a column of
// each type, naming what the column wants.
func TestIngestNullNamesItsColumnType(t *testing.T) {
	db := tpchView(t)
	cols, row := db.Columns(), tpchRows(t, db, 1)[0]
	for ci, want := range map[int]string{0: "a JSON integer", 1: "a JSON number", 4: "a JSON string"} {
		r := append([]string(nil), row...)
		r[ci] = "null"
		_, _, err := server.ParseIngest(ingestBody("n", [][]string{r}), db)
		if msg := fmt.Sprintf("rows[0][%d] (column %q): want %s, got null", ci, cols[ci], want); err == nil || err.Error() != msg || !server.IsBadRequest(err) {
			t.Errorf("column %s: %v, want 400 %q", cols[ci], err, msg)
		}
	}
}

// TestIngestBodyDepth: arrays and objects nest as deep as encoding/json
// lets them, 10 000, and one more is its syntax error.
func TestIngestBodyDepth(t *testing.T) {
	db := tpchView(t)
	for _, depth := range []int{9999, 10000} { // under the body's own object
		for _, open := range []string{"[", `{"a":`} {
			inner := strings.Repeat(open, depth) + "1"
			for i := 0; i < depth; i++ {
				inner += map[string]string{"[": "]", `{"a":`: "}"}[open]
			}
			sameParse(t, []byte(`{"x":`+inner+`}`), db)
		}
	}
}

// BenchmarkIngestBody parses a 200-row body over the tpch view, the shape of
// the benchmark harness's ingest batches, into typed rows: parse is the one
// pass POST /v1/ingest runs, reference the encoding/json decode it replaced.
func BenchmarkIngestBody(b *testing.B) {
	db := tpchView(b)
	body := ingestBody("bench-000001", tpchRows(b, db, 200))
	for _, c := range []struct {
		name  string
		parse func([]byte, *engine.Database) ([][]engine.Value, string, error)
	}{{"parse", server.ParseIngest}, {"reference", server.ReferenceIngest}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.parse(body, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
