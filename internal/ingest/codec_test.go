package ingest

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// TestIngestRefusesNonFiniteFloats: a batch whose WAL record replay would
// refuse must be refused before it is logged. A NaN or ±Inf float used to be
// acknowledged, and the next start-up then failed in ReplayWAL until the log
// was deleted.
func TestIngestRefusesNonFiniteFloats(t *testing.T) {
	k, f := engine.NewColumn("k", engine.String), engine.NewColumn("f", engine.Float)
	fact := engine.NewTable("fact", k, f)
	for i := 0; i < 500; i++ {
		fact.AppendRow(engine.StringVal(fmt.Sprintf("k%d", i%7)), engine.FloatVal(float64(i)/4))
	}
	sys := core.NewSystem(engine.MustNewDatabase("floats", fact))
	if err := sys.AddStrategy(core.NewSmallGroup(ingestSGCfg)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, w, Config{Online: core.OnlineConfig{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Ingest("", [][]engine.Value{{engine.StringVal("k1"), engine.FloatVal(v)}}); err == nil {
			t.Errorf("a batch holding %v was acknowledged", v)
		}
	}
	if _, err := c.Ingest("ok", [][]engine.Value{{engine.StringVal("k1"), engine.FloatVal(2.5)}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	records, _, _, _, err := replay(dir, func(p []byte) error {
		_, err := DecodeBatch(p)
		return err
	})
	if err != nil || records != 1 {
		t.Fatalf("replay of the log: %d records, %v; want the one finite batch", records, err)
	}
}

// TestEncodeBatchAcceptsOnlyWhatDecodeAccepts is FuzzWALDecode's round trip
// the other way: every batch EncodeBatch accepts, DecodeBatch accepts and
// returns unchanged, so no acknowledged record can fail replay.
func TestEncodeBatchAcceptsOnlyWhatDecodeAccepts(t *testing.T) {
	rng := randx.New(3)
	floats := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	value := func() engine.Value {
		switch rng.Intn(7) {
		case 0, 1:
			return engine.IntVal(rng.Int63() - rng.Int63())
		case 2, 3:
			return engine.FloatVal(floats[rng.Intn(len(floats))])
		case 4:
			if rng.Intn(30) == 0 {
				return engine.StringVal(strings.Repeat("x", maxValueLen-1+rng.Intn(3)))
			}
			return engine.StringVal(strings.Repeat("x", rng.Intn(40)))
		case 5:
			return engine.Value{T: engine.Type(rng.Intn(6))}
		}
		return engine.StringVal(fmt.Sprint(rng.Intn(100)))
	}
	var accepted int
	for i := 0; i < 3000; i++ {
		b := &Batch{Seq: rng.Uint64(), ID: strings.Repeat("i", rng.Intn(maxBatchID+2))}
		ncols := 1 + rng.Intn(4)
		for r := rng.Intn(4); r >= 0; r-- {
			row := make([]engine.Value, ncols+rng.Intn(8)/7)
			for j := range row {
				row[j] = value()
			}
			b.Rows = append(b.Rows, row)
		}
		p, err := EncodeBatch(b)
		if err != nil {
			continue
		}
		accepted++
		got, err := DecodeBatch(p)
		if err != nil {
			t.Fatalf("batch %d: EncodeBatch accepted what DecodeBatch refuses: %v", i, err)
		}
		if re, _ := EncodeBatch(got); !bytes.Equal(re, p) || got.Seq != b.Seq || got.ID != b.ID || len(got.Rows) != len(b.Rows) {
			t.Fatalf("batch %d: decoded batch differs from the encoded one", i)
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d of 3000 random batches were accepted; the generator is too hostile", accepted)
	}
}
