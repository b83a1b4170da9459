package core

import (
	"bytes"
	"testing"
)

// FuzzLoadSmallGroup proves the store loader never panics (and never
// over-allocates its way to an OOM kill) on arbitrary bytes. Seeds include
// a fully valid snapshot and targeted mutants, so the fuzzer starts deep
// inside the format instead of bouncing off the magic check.
func FuzzLoadSmallGroup(f *testing.F) {
	db := skewedDB(f, 2000)
	p := prep(f, db, SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 50, Seed: 7})
	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, p); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
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
