package congress

import (
	"testing"

	"dynsample/internal/engine"
)

func TestCandidateColumnDefaults(t *testing.T) {
	// u has too many distinct values and must be excluded from the default
	// candidate set.
	g := engine.NewColumn("g", engine.Int)
	u := engine.NewColumn("u", engine.Int)
	fact := engine.NewTable("fact", g, u)
	for i := 0; i < 500; i++ {
		g.AppendInt(int64(i % 3))
		u.AppendInt(int64(i))
		fact.EndRow()
	}
	db := engine.MustNewDatabase("d", fact)
	cols, err := candidateColumns(db, Config{DistinctLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "g" {
		t.Errorf("candidates = %v, want [g]", cols)
	}
}
