package sqlparse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

func TestParseBasic(t *testing.T) {
	stmt, err := Parse("SELECT a, c, COUNT(*) AS cnt FROM T GROUP BY a, c")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if stmt.Items[0].Column != "a" || stmt.Items[1].Column != "c" {
		t.Errorf("columns = %+v", stmt.Items[:2])
	}
	if stmt.Items[2].Agg == nil || stmt.Items[2].Agg.Func != "COUNT" || stmt.Items[2].Agg.Arg != "" {
		t.Errorf("agg = %+v", stmt.Items[2].Agg)
	}
	if stmt.Items[2].Alias != "cnt" {
		t.Errorf("alias = %q", stmt.Items[2].Alias)
	}
	if stmt.From != "T" {
		t.Errorf("from = %q", stmt.From)
	}
	if len(stmt.GroupBy) != 2 || stmt.GroupBy[0] != "a" || stmt.GroupBy[1] != "c" {
		t.Errorf("group by = %v", stmt.GroupBy)
	}
}

func TestParseWhereForms(t *testing.T) {
	stmt, err := Parse(`select sum(price) from sales where region in ('WA','OR') and qty >= 5 and price between 1.5 and 9 group by region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Where) != 3 {
		t.Fatalf("conds = %d", len(stmt.Where))
	}
	in, ok := stmt.Where[0].(*InCond)
	if !ok || in.Column != "region" || len(in.Values) != 2 || in.Values[0].Str != "WA" {
		t.Errorf("in = %+v", stmt.Where[0])
	}
	cmp, ok := stmt.Where[1].(*CmpCond)
	if !ok || cmp.Op != ">=" || !cmp.Value.IsInt || cmp.Value.Int != 5 {
		t.Errorf("cmp = %+v", stmt.Where[1])
	}
	bt, ok := stmt.Where[2].(*BetweenCond)
	if !ok || bt.Lo.Num != 1.5 || !bt.Hi.IsInt || bt.Hi.Int != 9 {
		t.Errorf("between = %+v", stmt.Where[2])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("SeLeCt CoUnT(*) FrOm t GrOuP bY x"); err != nil {
		t.Fatal(err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM T WHERE a = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.Where[0].(*CmpCond)
	if cmp.Value.Str != "it's" {
		t.Errorf("string = %q", cmp.Value.Str)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT COUNT(* FROM T",
		"SELECT SUM(*) FROM T",
		"SELECT COUNT(*) T",
		"SELECT COUNT(*) FROM T WHERE",
		"SELECT COUNT(*) FROM T WHERE a ! 1",
		"SELECT COUNT(*) FROM T WHERE a IN ()",
		"SELECT COUNT(*) FROM T WHERE a BETWEEN 1",
		"SELECT COUNT(*) FROM T GROUP",
		"SELECT COUNT(*) FROM T GROUP BY",
		"SELECT COUNT(*) FROM T extra",
		"SELECT COUNT(*) FROM T WHERE a = 'unterminated",
		"SELECT COUNT(*) FROM T WHERE a = 1 AND",
		"SELECT SELECT FROM T",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("parse succeeded for %q", s)
		}
	}
	// A sample table's mask word and weight columns are out of SQL's reach:
	// the reserved prefix starts no identifier, so the lexer stops at it.
	for _, name := range []string{engine.MaskColumn(0), engine.WeightColumn} {
		if toks, err := lex("SELECT COUNT(*) FROM T WHERE " + name + " = 0"); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("lexing %q: tokens %v, error %v", name, toks, err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// print(parse(x)) must be a fixed point: parsing it again gives the same
	// string.
	inputs := []string{
		"SELECT a, COUNT(*) FROM T GROUP BY a",
		"SELECT SUM(x) AS s, COUNT(*) FROM tab WHERE a IN (1, 2, 3) AND b = 'v' GROUP BY q",
		"SELECT AVG(m) FROM T WHERE x BETWEEN -5 AND 7",
		"SELECT a FROM T WHERE z <> 'q''q' GROUP BY a",
	}
	for _, in := range inputs {
		s1, err := Parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		out1 := s1.String()
		s2, err := Parse(out1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", out1, err)
		}
		if out2 := s2.String(); out1 != out2 {
			t.Errorf("round trip unstable:\n%s\n%s", out1, out2)
		}
	}
}

func TestRoundTripRandomised(t *testing.T) {
	cols := []string{"a", "b", "c", "price", "qty"}
	f := func(seed int64) bool {
		rng := randx.New(seed)
		stmt := &SelectStmt{From: "T"}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			stmt.GroupBy = append(stmt.GroupBy, cols[rng.Intn(len(cols))])
		}
		for _, g := range stmt.GroupBy {
			stmt.Items = append(stmt.Items, SelectItem{Column: g})
		}
		stmt.Items = append(stmt.Items, SelectItem{Agg: &AggExpr{Func: "COUNT"}})
		if rng.Intn(2) == 0 {
			stmt.Where = append(stmt.Where, &InCond{
				Column: cols[rng.Intn(len(cols))],
				Values: []Literal{{IsInt: true, Int: int64(rng.Intn(100))}, {IsString: true, Str: "x'y"}},
			})
		}
		out := stmt.String()
		re, err := Parse(out)
		if err != nil {
			return false
		}
		return re.String() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func compileDB(t *testing.T) *engine.Database {
	t.Helper()
	region := engine.NewColumn("region", engine.String)
	qty := engine.NewColumn("qty", engine.Int)
	price := engine.NewColumn("price", engine.Float)
	fact := engine.NewTable("sales", region, qty, price)
	for i := 0; i < 100; i++ {
		region.AppendString([]string{"WA", "OR", "CA"}[i%3])
		qty.AppendInt(int64(i % 7))
		price.AppendFloat(float64(i) * 1.5)
		fact.EndRow()
	}
	return engine.MustNewDatabase("salesdb", fact)
}

func TestCompileBasic(t *testing.T) {
	db := compileDB(t)
	stmt, err := Parse("SELECT region, COUNT(*), SUM(price) FROM sales WHERE qty >= 2 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Query.Aggs) != 2 {
		t.Fatalf("aggs = %v", c.Query.Aggs)
	}
	if len(c.Outputs) != 3 {
		t.Fatalf("outputs = %d", len(c.Outputs))
	}
	if c.Outputs[0].Kind != OutGroup || c.Outputs[1].Kind != OutAgg || c.Outputs[2].Kind != OutAgg {
		t.Errorf("output kinds = %+v", c.Outputs)
	}
	res, err := engine.ExecuteExact(db, c.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 3 {
		t.Errorf("groups = %d", res.NumGroups())
	}
}

func TestCompileAvgExpansion(t *testing.T) {
	db := compileDB(t)
	stmt, err := Parse("SELECT region, AVG(price), COUNT(*) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	// AVG expands into SUM + COUNT; the explicit COUNT(*) reuses the same
	// aggregate slot.
	if len(c.Query.Aggs) != 2 {
		t.Fatalf("aggs = %v", c.Query.Aggs)
	}
	avg := c.Outputs[1]
	if avg.Kind != OutAvg {
		t.Fatalf("output 1 kind = %v", avg.Kind)
	}
	res, err := engine.ExecuteExact(db, c.Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups() {
		got := g.Vals[avg.NumIndex] / g.Vals[avg.DenIndex]
		// Exact average of prices within the region.
		var want, n float64
		acc, _ := db.Accessor("region")
		pacc, _ := db.Accessor("price")
		for i := 0; i < db.NumRows(); i++ {
			if acc.Value(i) == g.Key[0] {
				want += pacc.Float(i)
				n++
			}
		}
		want /= n
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("group %v avg = %g, want %g", g.Key, got, want)
		}
	}
}

func TestCompileCoercion(t *testing.T) {
	db := compileDB(t)
	// Integer literal against float column is fine.
	if _, err := Compile(mustParse(t, "SELECT COUNT(*) FROM sales WHERE price > 3"), db); err != nil {
		t.Errorf("int literal vs float column: %v", err)
	}
	// Whole float literal against int column is fine.
	if _, err := Compile(mustParse(t, "SELECT COUNT(*) FROM sales WHERE qty = 3.0"), db); err != nil {
		t.Errorf("whole float vs int column: %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	db := compileDB(t)
	bad := []string{
		"SELECT COUNT(*) FROM nope",
		"SELECT COUNT(*) FROM sales GROUP BY missing",
		"SELECT qty, COUNT(*) FROM sales GROUP BY region",      // qty not grouped
		"SELECT SUM(region) FROM sales",                        // string aggregate
		"SELECT AVG(region) FROM sales",                        // string aggregate
		"SELECT region FROM sales GROUP BY region",             // no aggregate
		"SELECT COUNT(*) FROM sales WHERE region = 5",          // type mismatch
		"SELECT COUNT(*) FROM sales WHERE qty = 'x'",           // type mismatch
		"SELECT COUNT(*) FROM sales WHERE qty = 2.5",           // fractional vs int
		"SELECT COUNT(*) FROM sales WHERE missing IN (1)",      // unknown column
		"SELECT SUM(missing) FROM sales",                       // unknown column
		"SELECT COUNT(*) FROM sales WHERE price IN ('a', 'b')", // string vs float
	}
	for _, s := range bad {
		stmt, err := Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if _, err := Compile(stmt, db); err == nil {
			t.Errorf("compile succeeded for %q", s)
		}
	}
}

func TestCompileFromAliases(t *testing.T) {
	db := compileDB(t)
	for _, from := range []string{"salesdb", "sales", "T", "t"} {
		stmt := mustParse(t, "SELECT COUNT(*) FROM "+from)
		if _, err := Compile(stmt, db); err != nil {
			t.Errorf("FROM %s rejected: %v", from, err)
		}
	}
}

func TestCompiledQueryMatchesHandBuilt(t *testing.T) {
	db := compileDB(t)
	c, err := Compile(mustParse(t, "SELECT region, COUNT(*) FROM sales WHERE region IN ('WA','OR') GROUP BY region"), db)
	if err != nil {
		t.Fatal(err)
	}
	want := &engine.Query{
		GroupBy: []string{"region"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
		Where:   []engine.Predicate{engine.NewIn("region", engine.StringVal("WA"), engine.StringVal("OR"))},
	}
	gotRes, _ := engine.ExecuteExact(db, c.Query)
	wantRes, _ := engine.ExecuteExact(db, want)
	if gotRes.NumGroups() != wantRes.NumGroups() {
		t.Fatalf("group counts differ")
	}
	for _, k := range wantRes.Keys() {
		if gotRes.Group(k) == nil || gotRes.Group(k).Vals[0] != wantRes.Group(k).Vals[0] {
			t.Errorf("group %v differs", wantRes.Group(k).Key)
		}
	}
}

func TestQueryStringContainsPredicates(t *testing.T) {
	db := compileDB(t)
	c, err := Compile(mustParse(t, "SELECT COUNT(*) FROM sales WHERE qty BETWEEN 1 AND 3"), db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Query.String(), "BETWEEN 1 AND 3") {
		t.Errorf("query string %q", c.Query.String())
	}
}

func mustParse(t *testing.T, s string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return stmt
}
