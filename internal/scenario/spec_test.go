package scenario

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/server"
)

// minimalSpec returns a small valid spec the error tests mutate.
func minimalSpec() *Spec {
	return &Spec{
		Name: "T",
		Tables: []TableSpec{
			{
				Name: "fact",
				Fact: true,
				Rows: 100,
				Columns: []ColumnSpec{
					{Name: "cat", Type: TypeString, Dist: DistSpec{Kind: DistZipf, Card: 10, Z: 1}},
					{Name: "amount", Type: TypeFloat, Dist: DistSpec{Kind: DistLogNormal, Mu: 3, Sigma: 1}},
				},
			},
		},
	}
}

func TestValidateAcceptsMinimalSpec(t *testing.T) {
	if err := minimalSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

// expectErr validates the spec and requires an error mentioning want.
func expectErr(t *testing.T, s *Spec, want string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("spec validated; want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestValidateUnknownDistribution(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns[0].Dist = DistSpec{Kind: "pareto", Card: 10}
	expectErr(t, s, "unknown distribution")
}

func TestValidateMissingDistribution(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns[0].Dist = DistSpec{}
	expectErr(t, s, "missing distribution kind")
}

func TestValidateFKCycle(t *testing.T) {
	s := minimalSpec()
	s.Tables = append(s.Tables,
		TableSpec{Name: "a", Rows: 10,
			Columns: []ColumnSpec{{Name: "ac", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 3}}},
			FKs:     []FKSpec{{References: "b"}}},
		TableSpec{Name: "b", Rows: 10,
			Columns: []ColumnSpec{{Name: "bc", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 3}}},
			FKs:     []FKSpec{{References: "a"}}},
	)
	s.Tables[0].FKs = []FKSpec{{Column: "a_fk", References: "a"}}
	expectErr(t, s, "FK cycle")
}

func TestValidateUnknownFKReference(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].FKs = []FKSpec{{Column: "x_fk", References: "nope"}}
	expectErr(t, s, "unknown table")
}

func TestValidateCorrelatedMissingColumn(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Correlated = []CorrelatedSpec{
		{Columns: []string{"cat", "ghost"}, Kind: CorrFD, Determinant: "cat"},
	}
	expectErr(t, s, "missing column")
}

func TestValidateCorrelatedDeterminantOutsideGroup(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns = append(s.Tables[0].Columns,
		ColumnSpec{Name: "cat2", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 4}},
		ColumnSpec{Name: "cat3", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 4}})
	s.Tables[0].Correlated = []CorrelatedSpec{
		{Columns: []string{"cat2", "cat3"}, Kind: CorrFD, Determinant: "cat"},
	}
	expectErr(t, s, "not in the group")
}

func TestValidateJointStateArity(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns = append(s.Tables[0].Columns,
		ColumnSpec{Name: "pay", Type: TypeString, Dist: DistSpec{Kind: DistWeighted, Values: []any{"a", "b"}, Weights: []float64{1, 1}}},
		ColumnSpec{Name: "chan", Type: TypeString, Dist: DistSpec{Kind: DistWeighted, Values: []any{"x", "y"}, Weights: []float64{1, 1}}})
	s.Tables[0].Correlated = []CorrelatedSpec{
		{Columns: []string{"pay", "chan"}, Kind: CorrJoint, States: []JointState{{Weight: 1, Values: []any{"a"}}}},
	}
	expectErr(t, s, "has 1 values for 2 columns")
}

func TestValidateJointStateTypeMismatch(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns = append(s.Tables[0].Columns,
		ColumnSpec{Name: "pay", Type: TypeString, Dist: DistSpec{Kind: DistWeighted, Values: []any{"a"}, Weights: []float64{1}}},
		ColumnSpec{Name: "n", Type: TypeInt, Dist: DistSpec{Kind: DistUniform, Card: 3}})
	s.Tables[0].Correlated = []CorrelatedSpec{
		{Columns: []string{"pay", "n"}, Kind: CorrJoint, States: []JointState{{Weight: 1, Values: []any{"a", "not-an-int"}}}},
	}
	expectErr(t, s, "want an integer")
}

func TestValidateColumnInTwoGroups(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Columns = append(s.Tables[0].Columns,
		ColumnSpec{Name: "a", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 3}},
		ColumnSpec{Name: "b", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 3}})
	s.Tables[0].Correlated = []CorrelatedSpec{
		{Columns: []string{"a", "b"}, Kind: CorrFD, Determinant: "a"},
		{Columns: []string{"b", "cat"}, Kind: CorrFD, Determinant: "cat"},
	}
	expectErr(t, s, "already belongs")
}

func TestValidateTwoFactTables(t *testing.T) {
	s := minimalSpec()
	s.Tables = append(s.Tables, TableSpec{Name: "fact2", Fact: true, Rows: 10,
		Columns: []ColumnSpec{{Name: "z", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 2}}}})
	expectErr(t, s, "exactly one fact table")
}

func TestValidateDuplicateColumnAcrossTables(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].FKs = []FKSpec{{Column: "d_fk", References: "dim"}}
	s.Tables = append(s.Tables, TableSpec{Name: "dim", Rows: 10,
		Columns: []ColumnSpec{{Name: "cat", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 2}}}})
	expectErr(t, s, "declared in both")
}

func TestValidateUnreferencedTable(t *testing.T) {
	s := minimalSpec()
	s.Tables = append(s.Tables, TableSpec{Name: "orphan", Rows: 10,
		Columns: []ColumnSpec{{Name: "oc", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 2}}}})
	expectErr(t, s, "referenced by nothing")
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"name":"x","tables":[],"bogus":1}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v; want unknown-field rejection", err)
	}
}

func TestTopoOrderSnowflake(t *testing.T) {
	s := &Spec{
		Name: "SNOW",
		Tables: []TableSpec{
			{Name: "fact", Fact: true, Rows: 10,
				Columns: []ColumnSpec{{Name: "m", Type: TypeFloat, Dist: DistSpec{Kind: DistNormal, Mean: 1, Stddev: 0.1}}},
				FKs:     []FKSpec{{Column: "city_fk", References: "city"}}},
			{Name: "city", Rows: 10,
				Columns: []ColumnSpec{{Name: "city_name", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 5}}},
				FKs:     []FKSpec{{References: "region"}}},
			{Name: "region", Rows: 4,
				Columns: []ColumnSpec{{Name: "region_name", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 4}}}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := s.topoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, tt := range order {
		pos[tt.Name] = i
	}
	if !(pos["region"] < pos["city"] && pos["city"] < pos["fact"]) {
		var names []string
		for _, tt := range order {
			names = append(names, tt.Name)
		}
		t.Fatalf("topo order %v; want region before city before fact", names)
	}
}

// TestReservedColumnNamesRefused: a name under engine.ReservedPrefix is a
// sample table's mask word or weight column, so each of the four places a
// column name arrives from outside the program refuses one, saying why.
func TestReservedColumnNamesRefused(t *testing.T) {
	const name = engine.ReservedPrefix + "mask0"

	region, amount := engine.NewColumn("region", engine.String), engine.NewColumn("amount", engine.Float)
	fact := engine.NewTable("f", region, amount)
	for i := 0; i < 200; i++ {
		fact.AppendRow(engine.StringVal(fmt.Sprint("r", i%7)), engine.FloatVal(float64(i)))
	}
	sys := core.NewSystem(engine.MustNewDatabase("d", fact))
	if err := sys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.1, SmallGroupFraction: 0.05, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	wal, err := ingest.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	coord, err := ingest.New(sys, wal, ingest.Config{Online: core.OnlineConfig{SmallGroupFraction: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(sys, server.Config{Ingest: coord}).Handler())
	defer srv.Close()

	panicked := func(f func()) (err error) {
		defer func() { err, _ = recover().(error) }()
		f()
		return nil
	}
	for _, tc := range []struct {
		entry string
		try   func() error
	}{
		{"engine.NewTable", func() error {
			return panicked(func() { engine.NewTable("t", engine.NewColumn(name, engine.Int)) })
		}},
		{"Table.AddColumn", func() error {
			return panicked(func() { engine.NewTable("t").AddColumn(engine.NewColumn(name, engine.Int)) })
		}},
		{"the CSV header of aqpcli -load", func() error {
			_, err := engine.ReadCSV("t", strings.NewReader("a,"+name+"\n1,2\n"))
			return err
		}},
		{"scenario.Spec.Validate, a column", func() error {
			s := minimalSpec()
			s.Tables[0].Columns[0].Name = name
			return s.Validate()
		}},
		{"scenario.Spec.Validate, a fact FK column", func() error {
			s := minimalSpec()
			s.Tables = append(s.Tables, TableSpec{Name: "dim", Rows: 5, Columns: []ColumnSpec{{Name: "d", Type: TypeString, Dist: DistSpec{Kind: DistZipf, Card: 3, Z: 1}}}})
			s.Tables[0].FKs = []FKSpec{{Column: name, References: "dim"}}
			return s.Validate()
		}},
		{"scenario.Spec.Validate, a padded table", func() error {
			s := minimalSpec()
			s.Tables[0].Name, s.Tables[0].Padding = name, &PaddingSpec{Count: 2}
			return s.Validate()
		}},
		{"POST /v1/ingest columns", func() error {
			resp, err := http.Post(srv.URL+"/v1/ingest", "application/json",
				strings.NewReader(`{"columns":["region","`+name+`"],"rows":[["r1",2.5]]}`))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /v1/ingest with a reserved column name: status %d, want 400", resp.StatusCode)
			}
			return errors.New(string(body))
		}},
	} {
		if err := tc.try(); err == nil || !strings.Contains(err.Error(), "reserved") || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %v, want one naming %q as reserved", tc.entry, err, name)
		}
	}
}
