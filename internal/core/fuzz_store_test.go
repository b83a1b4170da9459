package core

import (
	"bytes"
	"os"
	"testing"

	"dynsample/internal/congress"
	"dynsample/internal/outlier"
	"dynsample/internal/weighted"
)

// FuzzLoadSmallGroup proves the store loader never panics (and never
// over-allocates its way to an OOM kill) on arbitrary bytes. Seeds include
// a fully valid snapshot and targeted mutants, so the fuzzer starts deep
// inside the format instead of bouncing off the magic check, a valid store
// of each overall sample selector kind the config record holds, one over a
// star schema, whose fact slices record the dimension table they join, and
// the version 8 fixture (a pair table and two levels) beside the version 7
// one a load refuses.
func FuzzLoadSmallGroup(f *testing.F) {
	db := skewedDB(f, 2000)
	save := func(cfg SmallGroupConfig) []byte {
		var buf bytes.Buffer
		if err := SaveSmallGroup(&buf, prep(f, db, cfg)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := save(SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 50, Seed: 7})
	for _, sel := range []OverallBuilder{
		nil,
		outlier.Config{Measure: "m", Seed: 8},
		congress.Config{Columns: []string{"a", "b"}, Variant: congress.Full, Seed: 9},
		weighted.Config{Workload: []string{"SELECT a, COUNT(*) FROM T WHERE a IN ('A2', 'A3') GROUP BY a"}, Seed: 10},
	} {
		f.Add(save(SmallGroupConfig{BaseRate: 0.05, Columns: []string{}, Overall: sel, Seed: 7}))
	}

	f.Add(valid)
	for _, fixture := range []string{"testdata/family.dssg", "testdata/family-v7.dssg"} {
		b, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(preparedBytes(f, prep(f, starDB(f, 2000, 5), SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.1, Seed: 9})))
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:37])           // dies inside the metadata header
	for _, off := range []int{5, 17, 36, len(valid) / 3, len(valid) - 8} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 1 << (off % 8) // bit-flipped mutants
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("DSSG"))
	f.Add([]byte("DSSG\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are the expected outcome for junk.
		p, err := LoadSmallGroup(bytes.NewReader(data))
		if err == nil && p == nil {
			t.Fatal("nil Prepared with nil error")
		}
	})
}
