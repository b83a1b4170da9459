package core

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
)

// craftStore builds a raw store stream header-by-header so tests can plant
// hostile length prefixes at exact positions. build writes everything after
// the fixed header fields.
func craftStore(maxTables, ncols uint32, build func(w *bufio.Writer)) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(storeMagic)
	putU32(w, storeVersion)
	putF64(w, 0.95)      // confidence level
	putU32(w, maxTables) // MaxTablesPerQuery
	putF64(w, 1)         // overall scale
	putU64(w, 0)         // data generation (v2)
	putU64(w, 1000)      // base rows
	putU32(w, ncols)
	if build != nil {
		build(w)
	}
	w.Flush()
	return buf.Bytes()
}

// TestLoadSmallGroupHostileLengthPrefixes proves a corrupt header cannot
// trigger a huge allocation: every length prefix is sanity-capped and the
// loader fails with a descriptive error instead of OOMing.
func TestLoadSmallGroupHostileLengthPrefixes(t *testing.T) {
	huge := uint32(math.MaxUint32 - 7)
	cases := []struct {
		name    string
		stream  []byte
		wantErr string
	}{
		{
			name:    "oversized max tables",
			stream:  craftStore(huge, 0, nil),
			wantErr: "unreasonable max tables",
		},
		{
			name:    "oversized column count",
			stream:  craftStore(3, huge, nil),
			wantErr: "unreasonable column count",
		},
		{
			name: "oversized value set",
			stream: craftStore(3, 1, func(w *bufio.Writer) {
				putString(w, "col")
				putU32(w, 10)   // distinct
				putU64(w, 5)    // rare rows
				putU32(w, huge) // common set size — hostile
			}),
			wantErr: "unreasonable value set size",
		},
		{
			name: "oversized pair count",
			stream: craftStore(3, 0, func(w *bufio.Writer) {
				putU32(w, huge) // npairs
			}),
			wantErr: "unreasonable pair count",
		},
		{
			name: "oversized rare key count",
			stream: craftStore(3, 0, func(w *bufio.Writer) {
				putU32(w, 1) // npairs
				putString(w, "a")
				putString(w, "b")
				putU64(w, 7)    // rare rows
				putU32(w, huge) // nk — hostile
			}),
			wantErr: "unreasonable rare key count",
		},
		{
			name: "oversized string length",
			stream: craftStore(3, 1, func(w *bufio.Writer) {
				putU32(w, huge) // column name length — hostile
			}),
			wantErr: "unreasonable string length",
		},
		{
			name:    "truncated mid-header",
			stream:  craftStore(3, 2, nil)[:20],
			wantErr: "",
		},
		{
			name:    "empty",
			stream:  nil,
			wantErr: "reading store header",
		},
		{
			// Version 1 (no data generation field) is no longer read.
			name:    "superseded version",
			stream:  append([]byte(storeMagic+"\x01\x00\x00\x00"), craftStore(3, 0, nil)[8:]...),
			wantErr: "unsupported store version 1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := LoadSmallGroup(bytes.NewReader(c.stream))
			if err == nil {
				t.Fatalf("hostile stream accepted: %v", p)
			}
			if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestSnapshotStoreRoundTrip covers the checksummed container around the
// raw store: each loader reads its own format, and the container loader
// refuses a bare store with an error that says what it wanted.
func TestSnapshotStoreRoundTrip(t *testing.T) {
	db := skewedDB(t, 3000)
	orig := prep(t, db, SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 100, Seed: 3})

	var snap bytes.Buffer
	if err := SaveSmallGroupSnapshot(&snap, orig); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := SaveSmallGroup(&raw, orig); err != nil {
		t.Fatal(err)
	}

	for name, load := range map[string]func() (Prepared, error){
		"snapshot": func() (Prepared, error) { return LoadSmallGroupSnapshot(bytes.NewReader(snap.Bytes())) },
		"raw":      func() (Prepared, error) { return LoadSmallGroup(bytes.NewReader(raw.Bytes())) },
	} {
		loaded, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.SampleRows() != orig.SampleRows() {
			t.Errorf("%s: sample rows %d vs %d", name, loaded.SampleRows(), orig.SampleRows())
		}
	}
	for name, b := range map[string][]byte{"raw store": raw.Bytes(), "garbage": []byte("GARBAGE!")} {
		if _, err := LoadSmallGroupSnapshot(bytes.NewReader(b)); err == nil ||
			!strings.Contains(err.Error(), "checksummed container") {
			t.Fatalf("%s through the snapshot loader: err = %v", name, err)
		}
	}
	if _, err := LoadSmallGroup(bytes.NewReader(snap.Bytes())); err == nil || !strings.Contains(err.Error(), "bad store magic") {
		t.Fatalf("snapshot through the raw loader: err = %v", err)
	}

	// The container must reject corruption anywhere, including in table data
	// the raw loader would happily decode.
	enc := snap.Bytes()
	for _, off := range []int{10, len(enc) / 2, len(enc) - 10} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x20
		if _, err := LoadSmallGroupSnapshot(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
	for _, cut := range []int{0, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := LoadSmallGroupSnapshot(bytes.NewReader(enc[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
