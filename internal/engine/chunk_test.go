package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// chunkEdgeRows are the table lengths at which chunked storage changes shape:
// nothing, one row, a tail one short of a chunk, exactly one sealed chunk, a
// sealed chunk and a one-row tail, several chunks and a ragged tail.
var chunkEdgeRows = []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7}

// chunkEdgeSources builds, for n fact rows, a flat table with masks and
// weights and a star database whose second dimension is longer than a chunk.
func chunkEdgeSources(rng *rand.Rand, n int) (flat kernelSource, star kernelSource) {
	names := func(cols []*Column) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = c.Name
		}
		return out
	}
	flatCols := kernelColumns(rng, "", n)
	tbl := NewTable("flat", flatCols...)
	tbl.addSampleColumns(kernelSideArrays(rng, n, masks65))

	const d1Rows, d2Rows = 40, chunkRows + 300
	factCols, d1Cols, d2Cols := kernelColumns(rng, "f_", n), kernelColumns(rng, "d1_", d1Rows), kernelColumns(rng, "d2_", d2Rows)
	fk1, fk2 := NewColumn("fk1", Int), NewColumn("fk2", Int)
	for r := 0; r < n; r++ {
		fk1.AppendInt(int64(rng.Intn(d1Rows)))
		fk2.AppendInt(int64(rng.Intn(d2Rows)))
	}
	db := MustNewDatabase("star", NewTable("fact", append(factCols, fk1, fk2)...),
		DimJoin{Table: NewTable("d1", d1Cols...), FK: "fk1"}, DimJoin{Table: NewTable("d2", d2Cols...), FK: "fk2"})
	starCols := append(append(names(factCols), names(d1Cols)...), names(d2Cols)...)
	return kernelSource{"flat", tbl, names(flatCols), []string{"f", "i_low", "s_low"}, masks65},
		kernelSource{"star", db, starCols, []string{"f_f", "d1_i_wide", "d2_f"}, masks65}
}

// TestChunkEdgeRowCounts: at every length where the storage changes shape the
// binary format round-trips, a streamed row range equals the flattened one
// byte for byte, and the kernel agrees with the row-at-a-time reference — over
// the whole source and over ranges that start and end inside a chunk.
func TestChunkEdgeRowCounts(t *testing.T) {
	for _, n := range chunkEdgeRows {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		flat, star := chunkEdgeSources(rng, n)

		// Binary round trip: same bytes after a decode and a re-encode, same cells.
		tbl := flat.src.(*Table)
		enc := tableBytes(t, tbl)
		back, err := ReadBinary(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: ReadBinary: %v", n, err)
		}
		if !bytes.Equal(tableBytes(t, back), enc) {
			t.Fatalf("n=%d: table changed across a binary round trip", n)
		}
		for _, c := range back.Columns() {
			if c.Len() != n {
				t.Fatalf("n=%d: column %q decoded to %d rows", n, c.Name, c.Len())
			}
		}
		for _, r := range []int{0, n / 2, n - 1} {
			if r < 0 || r >= n {
				continue
			}
			got, want := rowValues(back, r), rowValues(tbl, r)
			for j := range want {
				if !sameValue(got[j], want[j]) {
					t.Fatalf("n=%d row %d column %d: %v, want %v", n, r, j, got[j], want[j])
				}
			}
		}
		// A decoded table is appendable: its tail, cut to length, grows.
		if n > 0 {
			grown := back.CloneForAppend()
			grown.AppendRow(rowValues(tbl, 0)...)
			if grown.NumRows() != n+1 || back.NumRows() != n || !sameValue(rowValues(grown, n)[0], rowValues(tbl, 0)[0]) {
				t.Fatalf("n=%d: append onto a decoded table", n)
			}
		}

		// Streamed row ranges of the joined view against Flatten's copy.
		db := star.src.(*Database)
		for _, r := range [][2]int{{0, n}, {n / 3, n}, {min(n, chunkRows-1), n}, {n / 2, n / 2}} {
			rows := make([]int, 0, r[1]-r[0])
			for i := r[0]; i < r[1]; i++ {
				rows = append(rows, i)
			}
			var streamed bytes.Buffer
			if err := db.WriteRowsBinary(&streamed, "delta", r[0], r[1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(streamed.Bytes(), tableBytes(t, db.Flatten("delta", rows, nil, nil))) {
				t.Fatalf("n=%d: rows [%d,%d) streamed differ from the flattened table's bytes", n, r[0], r[1])
			}
		}

		// The kernel against the reference: whole source, then ragged ranges.
		for _, ks := range []kernelSource{flat, star} {
			for i := 0; i < 12; i++ {
				q := kernelQuery(rng, ks)
				opt := kernelOptions(rng, max(n, 1), ks.masks)
				label := fmt.Sprintf("n=%d %s #%d: %s %+v", n, ks.name, i, q, opt)
				got, err := ExecuteCtx(context.Background(), ks.src, q, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameResult(t, label, referenceExecute(t, ks.src, q, opt), got)

				lo, hi := n/3, n-n/5 // both inside a chunk for the longer tables
				scale := opt.Scale
				if scale == 0 {
					scale = 1
				}
				bound, err := bindQuery(ks.src, q, opt.ExcludeMask)
				if err != nil {
					t.Fatal(err)
				}
				want := NewResult(q.GroupBy, q.Aggs)
				referenceScanRange(want, ks.src, q, referenceBind(t, ks.src, q), opt, scale, lo, hi)
				requireSameResult(t, fmt.Sprintf("%s rows [%d,%d)", label, lo, hi), want, executeRange(ks.src, q, bound, opt, scale, lo, hi))
			}
		}
	}
}

func sameValue(a, b Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && sameBits(a.F, b.F)
}

// TestColumnFrequenciesMidChunkShards: three workers over a table a little
// longer than one scan shard split it into row ranges that start inside a
// chunk; counts and classes are the naive ones all the same.
func TestColumnFrequenciesMidChunkShards(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, star := chunkEdgeSources(rng, ScanShardRows+chunkRows+7)
	for _, workers := range []int{1, 3} {
		checkKernel(t, star.src.(*Database), 0, workers)
	}
}

// appendBytesPerBatch appends batches of 200 rows to a flat table of base rows
// and returns the mean bytes one Append allocated, the first included.
func appendBytesPerBatch(t *testing.T, base, batches int) float64 {
	t.Helper()
	const batch = 200
	// Gathered, as a restored or flattened table is: no spare capacity.
	all := make([]int, base)
	for i := range all {
		all[i] = i
	}
	app, err := NewAppender(MustNewDatabase("DB", chunkedTestDB(base).Flatten("fact", all, nil, nil)))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, batch)
	for i := range rows {
		rows[i] = chunkedTestRow(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < batches; b++ {
		if _, err := app.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(batches)
}

// TestAppendAllocatesPerBatchNotPerTable: what an append allocates is the new
// chunks its rows fill and the new version's headers, whatever the table's
// length — never a copy of a column. That holds across the seal step too:
// 200 batches fill and seal 39 chunks a column, each seal puts one entry on
// the end of the chunk list (which grows as a slice does, a copy of the list
// now and then, never of a chunk), and the mean stays where it was.
func TestAppendAllocatesPerBatchNotPerTable(t *testing.T) {
	for batches, limit := range map[int]float64{20: 2, 200: 1.25} {
		small, large := appendBytesPerBatch(t, 50_000, batches), appendBytesPerBatch(t, 500_000, batches)
		t.Logf("bytes per 200-row Append over %d batches: %.0f at 50k rows, %.0f at 500k rows", batches, small, large)
		if large > limit*small {
			t.Fatalf("Append allocates %.0f B a batch on 500k rows against %.0f B on 50k: it grows with the table", large, small)
		}
	}
}

// overclaimingStream is a table stream whose header promises 2^31 rows and
// whose body holds three.
func overclaimingStream(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteBinary(binaryFixture(), &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rowsAt := len(tableMagic) + 4 + len("fix")
	copy(data[rowsAt:], []byte{0, 0, 0, 0x80})
	return data
}

// TestReadBinaryAllocatesByArrival: a header that claims more rows than the
// stream holds fails, having allocated for the bytes that arrived and not for
// the rows that were promised.
func TestReadBinaryAllocatesByArrival(t *testing.T) {
	data := overclaimingStream(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a stream three rows long decoded as 2^31 rows")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<18 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes", len(data), got)
	}
}
