package core

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"

	"dynsample/internal/binio"
)

// craftStore builds a raw store stream header-by-header so tests can plant
// hostile length prefixes at exact positions. build writes everything after
// the fixed header fields.
func craftStore(maxTables, ncols uint32, build func(w *bufio.Writer)) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(storeMagic)
	binio.PutU32(w, storeVersion)
	binio.PutU32(w, maxTables) // MaxTablesPerQuery
	binio.PutU32(w, 100)       // DistinctLimit
	binio.PutF64(w, 1)         // overall scale
	binio.PutU64(w, 0)         // data generation
	binio.PutU64(w, 1000)      // base rows
	binio.PutU32(w, ncols)
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
				binio.PutString(w, "col")
				binio.PutU32(w, 10)   // distinct
				binio.PutU64(w, 5)    // rare rows
				binio.PutU32(w, huge) // common set size — hostile
			}),
			wantErr: "unreasonable value set size",
		},
		{
			name: "oversized pair count",
			stream: craftStore(3, 0, func(w *bufio.Writer) {
				binio.PutU32(w, huge) // npairs
			}),
			wantErr: "unreasonable pair count",
		},
		{
			name: "oversized rare key count",
			stream: craftStore(3, 0, func(w *bufio.Writer) {
				binio.PutU32(w, 1) // npairs
				binio.PutString(w, "a")
				binio.PutString(w, "b")
				binio.PutU64(w, 7)    // rare rows
				binio.PutU32(w, huge) // nk — hostile
			}),
			wantErr: "unreasonable rare key count",
		},
		{
			name: "oversized string length",
			stream: craftStore(3, 1, func(w *bufio.Writer) {
				binio.PutU32(w, huge) // column name length — hostile
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
		{
			// Version 2 (a confidence level in the header) is refused by name.
			name:    "confidence-level version",
			stream:  append([]byte(storeMagic+"\x02\x00\x00\x00"), craftStore(3, 0, nil)[8:]...),
			wantErr: "store version 2 carries a confidence level",
		},
		{
			// Version 3 (no distinct-value cutoff in the header) is refused
			// by name.
			name:    "no-distinct-limit version",
			stream:  append([]byte(storeMagic+"\x03\x00\x00\x00"), craftStore(3, 0, nil)[8:]...),
			wantErr: "store version 3 does not record the distinct-value cutoff",
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
