package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// The storage differential test: chunked[T] against a plain slice. Everything
// the storage offers — push across seals, set inside and outside a chunk's
// span, versions, unpacking, gather, the binary format — is driven through the
// Table calls that reach it, and after every step each row, each chunk's
// decode in order, from an odd offset and through a selection, the column's
// bounds and its byte count are held to the slice.

// needBits is the width a chunk of vals must be sealed at: 0, the values
// themselves, past 32 bits or at the type's own width.
func needBits[T int32 | int64](vals []T) uint8 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := max(bits.Len64(uint64(int64(hi))-uint64(int64(lo))), 1)
	if w > 32 || w == 8*int(unsafe.Sizeof(lo)) {
		return 0
	}
	return uint8(w)
}

// checkChunk holds one chunk to the rows it must read as. A chunk no SetRow
// has widened (tight) is at exactly the width its span needs.
func checkChunk[T int32 | int64](t *testing.T, label string, rng *rand.Rand, c *chunk[T], want []T, tight bool) {
	t.Helper()
	n := len(want)
	if c.width == 0 {
		if len(c.wide) < n {
			t.Fatalf("%s: %d values held for %d rows", label, len(c.wide), n)
		}
	} else {
		need := needBits(want)
		if need == 0 || c.width < need || tight && c.width != need {
			t.Fatalf("%s: sealed at %d bits, the rows need %d (0: the values themselves)", label, c.width, need)
		}
		if size := max((n*int(c.width)+7)/8, 8); len(c.b) != size || c.rows() != n || c.wide != nil {
			t.Fatalf("%s: %d rows at %d bits in %d bytes (want %d), rows() %d", label, n, c.width, len(c.b), size, c.rows())
		}
		if got := c.bytes(); got != int64(unsafe.Sizeof(*c))+int64(len(c.b)) {
			t.Fatalf("%s: bytes() %d for %d packed bytes", label, got, len(c.b))
		}
	}
	dst := make([]T, n)
	same := func(what string, lo int, sel []int32, got []T) {
		t.Helper()
		for j, x := range got {
			r := lo + j
			if sel != nil {
				r = lo + int(sel[j])
			}
			if x != want[r] {
				t.Fatalf("%s (width %d, %d rows): %s from %d: row %d reads %d, want %d", label, c.width, n, what, lo, r, x, want[r])
			}
		}
	}
	for o := range want {
		if got := c.at(o); got != want[o] {
			t.Fatalf("%s (width %d, %d rows): at(%d) = %d, want %d", label, c.width, n, o, got, want[o])
		}
	}
	c.decode(dst, nil, 0)
	same("decode in order", 0, nil, dst)
	for _, lo := range []int{rng.Intn(n) | 1, rng.Intn(n) &^ 7, n - 1} {
		if lo >= n {
			continue
		}
		clear(dst)
		c.decode(dst[:n-lo], nil, lo)
		same("decode in order", lo, nil, dst[:n-lo])
		if c.width == 0 {
			continue // read in place, never through a selection
		}
		sel := []int32{} // not nil: nil is every row
		for o, p := 0, []float64{0.05, 0.5, 0.95}[rng.Intn(3)]; o < n-lo; o++ {
			if rng.Float64() < p {
				sel = append(sel, int32(o))
			}
		}
		clear(dst)
		c.decode(dst, sel, lo)
		same("decode selected", lo, sel, dst[:len(sel)])
	}
}

// checkChunked holds a column's storage to the n rows in want.
func checkChunked[T int32 | int64](t *testing.T, label string, rng *rand.Rand, s *chunked[T], want []T, loose map[int]bool) {
	t.Helper()
	n := len(want)
	for k := 0; k<<chunkShift < n; k++ {
		rows := want[k<<chunkShift : min(n, (k+1)<<chunkShift)]
		checkChunk(t, fmt.Sprintf("%s chunk %d", label, k), rng, s.chunk(k), rows, !loose[k])
		if o := rng.Intn(len(rows)); s.at(k<<chunkShift+o) != rows[o] {
			t.Fatalf("%s: row %d reads %d, want %d", label, k<<chunkShift+o, s.at(k<<chunkShift+o), rows[o])
		}
	}
	held := s.last.bytes()
	for k := range s.sealed {
		held += s.sealed[k].bytes()
	}
	if n > 0 && s.bytes() != held {
		t.Fatalf("%s: bytes() %d, the chunks hold %d", label, s.bytes(), held)
	}
	si, ok := any(s).(*chunked[int64])
	if !ok || n == 0 {
		return
	}
	lo, hi := intBounds(si, n)
	tlo, thi := int64(want[0]), int64(want[0])
	for _, v := range want {
		tlo, thi = min(tlo, int64(v)), max(thi, int64(v))
	}
	if lo > tlo || hi < thi {
		t.Fatalf("%s: bounds [%d,%d] miss values in [%d,%d]", label, lo, hi, tlo, thi)
	}
	packed := len(loose) == 0
	for k := range si.sealed {
		packed = packed && si.sealed[k].width != 0
	}
	if span, tspan := uint64(hi)-uint64(lo), uint64(thi)-uint64(tlo); packed && tspan < 1<<62 && span > 2*tspan+1 {
		t.Fatalf("%s: bounds [%d,%d] for values in [%d,%d]: more than twice the range", label, lo, hi, tlo, thi)
	}
}

// codecProfile draws a column's values: base plus an offset of w bits, the
// least and the greatest one in every few rows.
type codecProfile struct {
	name string
	base int64
	w    int
}

func codecProfiles() []codecProfile {
	ps := []codecProfile{{"constant", -12, 0}, {"all of int64", math.MinInt64, 64}}
	for w := 1; w <= 33; w++ { // 33: stays wide
		base := int64(1)<<40 + 3
		if w%2 == 1 {
			base = -(int64(1) << (w / 2)) - 7 // a negative minimum, the span crossing zero
		}
		ps = append(ps, codecProfile{fmt.Sprint("w=", w), base, w})
	}
	for _, w := range []int{5, 20, 32} {
		ps = append(ps, codecProfile{fmt.Sprint("w=", w, " from MinInt64"), math.MinInt64, w},
			codecProfile{fmt.Sprint("w=", w, " up to MaxInt64"), math.MaxInt64 - (1<<w - 1), w})
	}
	return ps
}

func (p codecProfile) draw(rng *rand.Rand) []Value {
	mask := uint64(math.MaxUint64)
	if p.w < 64 {
		mask = 1<<p.w - 1
	}
	off := rng.Uint64() & mask
	switch rng.Intn(8) {
	case 0:
		off = 0
	case 1:
		off = mask
	}
	return []Value{IntVal(int64(uint64(p.base) + off)), StringVal(strconv.FormatUint(off%700, 36))}
}

// codecTable is a two-column table (an integer and a string) beside the rows
// it must hold. loose has the chunks a SetRow may have left wider than their
// rows need.
type codecTable struct {
	tbl   *Table
	rows  [][]Value
	loose map[int]bool
}

func (ct codecTable) check(t *testing.T, label string, rng *rand.Rand) {
	t.Helper()
	if ct.tbl.NumRows() != len(ct.rows) {
		t.Fatalf("%s: %d rows, want %d", label, ct.tbl.NumRows(), len(ct.rows))
	}
	ic, sc := ct.tbl.cols[0], ct.tbl.cols[1]
	ints, codes := make([]int64, len(ct.rows)), make([]int32, len(ct.rows))
	for i, r := range ct.rows {
		ints[i], codes[i] = r[0].I, sc.dictIx[r[1].S]
		if sc.dict[codes[i]] != r[1].S {
			t.Fatalf("%s: dictionary entry %d is %q, want %q", label, codes[i], sc.dict[codes[i]], r[1].S)
		}
	}
	checkChunked(t, label+" ints", rng, &ic.ints, ints, ct.loose)
	checkChunked(t, label+" codes", rng, &sc.codes, codes, ct.loose)
}

// clone is the next version of the table, for a step to write.
func (ct codecTable) clone() codecTable {
	loose := map[int]bool{}
	for k := range ct.loose {
		loose[k] = true
	}
	return codecTable{ct.tbl.CloneForAppend(), append([][]Value(nil), ct.rows...), loose}
}

func (ct *codecTable) set(i int, row []Value) {
	if k := i >> chunkShift; ct.tbl.cols[0].ints.chunk(k).width != 0 || ct.tbl.cols[1].codes.chunk(k).width != 0 {
		ct.loose[k] = true
	}
	ct.tbl.SetRow(i, row...)
	ct.rows[i] = row
}

func TestChunkedMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for pi, p := range codecProfiles() {
		for _, n := range []int{1, 7, 8, 9, chunkRows - 1, chunkRows, chunkRows + 1, 17*chunkRows + 1} {
			if n > 2*chunkRows && pi%4 != 0 {
				continue
			}
			cur := codecTable{tbl: NewTable("t", NewColumn("i", Int), NewColumn("s", String)), loose: map[int]bool{}}
			for r := 0; r < n; r++ {
				cur.rows = append(cur.rows, p.draw(rng))
				cur.tbl.AppendRow(cur.rows[r]...)
			}
			label := fmt.Sprintf("%s, %d rows", p.name, n)
			cur.check(t, label+": appended", rng)

			for step := 0; step < 10; step++ {
				pinned, op := cur, rng.Intn(8)
				what := fmt.Sprintf("%s: step %d (op %d)", label, step, op)
				i := rng.Intn(len(cur.rows))
				k := i >> chunkShift
				in := cur.rows[k<<chunkShift : min(len(cur.rows), (k+1)<<chunkShift)]
				lo, hi := in[0][0].I, in[0][0].I
				for _, r := range in {
					lo, hi = min(lo, r[0].I), max(hi, r[0].I)
				}
				switch op {
				case 0: // a value from the chunk itself: inside its span
					cur = cur.clone()
					cur.set(i, in[rng.Intn(len(in))])
				case 1: // below the chunk's minimum
					if lo < math.MinInt64+4 {
						continue
					}
					cur = cur.clone()
					cur.set(i, []Value{IntVal(lo - 1 - rng.Int63n(3)), StringVal("below")})
				case 2: // above what the chunk's width holds, then the row as it was
					up := int64(1) << rng.Intn(45)
					if hi > math.MaxInt64-up {
						continue
					}
					was := cur.rows[i]
					cur = cur.clone()
					cur.set(i, []Value{IntVal(hi + up), StringVal("above" + strconv.Itoa(step))})
					cur.check(t, what+", widened", rng)
					cur.set(i, was)
					cur.set((i+1)%len(cur.rows), p.draw(rng)) // in span or out: sealed again at need
				case 3, 4: // the newest version grows while the older one is read
					cur = cur.clone()
					for r, more := 0, []int{1, 7, chunkRows, chunkRows + 500}[rng.Intn(4)]; r < more; r++ {
						cur.rows = append(cur.rows, p.draw(rng))
						cur.tbl.AppendRow(cur.rows[len(cur.rows)-1]...)
					}
				case 5: // through the binary format: every chunk sealed afresh
					back, err := ReadBinary(bytes.NewReader(tableBytes(t, cur.tbl)))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					cur = codecTable{back, cur.rows, map[int]bool{}}
				case 6: // gathered, in a shuffled order with repeats
					at := make([]int, len(cur.rows)+rng.Intn(9))
					rows := make([][]Value, len(at))
					for j := range at {
						at[j] = rng.Intn(len(cur.rows))
						rows[j] = cur.rows[at[j]]
					}
					flat := flatten(MustNewDatabase("db", cur.tbl), "flat", at, nil)
					codecTable{flat, rows, map[int]bool{}}.check(t, what+", flattened", rng)
				case 7: // as a dimension's view: the rows unpacked, then gathered
					v := cur.tbl.cols[0].View()
					fk := NewColumn("fk", Int)
					for j := 0; j < 300; j++ {
						fk.AppendInt(int64(rng.Intn(len(cur.rows))))
					}
					v.fk, v.Dim, v.dim = fk.ints, 0, cur.tbl
					v.unpack()
					buf := newBlockBuf()
					got, at := window(&v.ints, &v, identity[:fk.Len()], 0, buf.ints, &buf)
					for j, a := range at {
						if r := fk.Int(j); got[a] != cur.rows[r][0].I {
							t.Fatalf("%s: gathered row %d reads %d, want %d", what, r, got[a], cur.rows[r][0].I)
						}
					}
				}
				cur.check(t, what, rng)
				pinned.check(t, what+", the version before", rng)
			}
		}
	}
}

// FuzzChunkCodec: values, a selection and a sequence of sets from the fuzz
// bytes; sealed, decoded, set and decoded again, the chunk reads as the slice.
func FuzzChunkCodec(f *testing.F) {
	seed := func(w int, base int64, n int) {
		data := []byte{byte(w), byte(n), byte(n >> 8)}
		data = binary.LittleEndian.AppendUint64(data, uint64(base))
		for i := 0; i < 64; i++ {
			data = binary.LittleEndian.AppendUint64(data, uint64(i)*0x9e3779b97f4a7c15)
		}
		f.Add(data)
	}
	seed(8, -100, 300)          // a byte an offset
	seed(3, -3, chunkRows)      // eight rows at a time out of one load
	seed(11, 5, 1000)           // eight rows at a time out of two
	seed(16, 1<<40, chunkRows)  // the widest of those
	seed(21, -7, 999)           // one row at a time, topped up
	seed(32, math.MinInt64, 77) // the widest packed, from MinInt64
	seed(40, 0, 50)             // stays wide
	seed(1, math.MaxInt64-1, 5) // under eight bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		w, n, base := int(data[0])%65, 1+(int(data[1])|int(data[2])<<8)%chunkRows, int64(binary.LittleEndian.Uint64(data[3:]))
		data = data[11:]
		word := func(i int) uint64 { // the fuzz bytes, over and over
			var b [8]byte
			for j := range b {
				b[j] = data[(8*i+j)%len(data)]
			}
			return binary.LittleEndian.Uint64(b[:]) * (2*uint64(i) + 1)
		}
		mask := uint64(math.MaxUint64)
		if w < 64 {
			mask = 1<<w - 1
		}
		want := make([]int64, n)
		for i := range want {
			want[i] = int64(uint64(base) + word(i)&mask)
		}
		rng := rand.New(rand.NewSource(int64(word(n))))
		var s chunked[int64]
		s.add(append([]int64(nil), want...))
		checkChunk(t, "sealed", rng, s.chunk(0), want, true)
		for i := 0; i < 8; i++ {
			o, v := int(word(n+2*i)%uint64(n)), int64(word(n+2*i+1))
			if i%2 == 0 { // every other one near the chunk's values
				v = int64(uint64(base) + uint64(v)&(2*mask+1))
			}
			s.set(o, v)
			want[o] = v
			checkChunk(t, fmt.Sprint("after set ", i), rng, s.chunk(0), want, false)
		}
	})
}

// BenchmarkChunkDecode measures the decode of one full sealed chunk per
// width, every row in order (all) and one row in five through a selection
// (sel20), in ns per value handed out.
func BenchmarkChunkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sel := make([]int32, 0, chunkRows/5)
	for o := 0; o < chunkRows; o += 1 + rng.Intn(9) {
		sel = append(sel, int32(o))
	}
	for _, w := range []int{1, 2, 3, 4, 6, 8, 11, 15, 16, 32} {
		vals := make([]int64, chunkRows)
		for i := range vals {
			vals[i] = -7 + rng.Int63n(1<<w)
		}
		vals[0], vals[1] = -7, -7+1<<w-1
		c := seal(vals)
		if int(c.width) != w {
			b.Fatalf("sealed at %d bits, want %d", c.width, w)
		}
		dst := make([]int64, chunkRows)
		for _, m := range []struct {
			name string
			sel  []int32
			n    int
		}{{"all", nil, chunkRows}, {"sel20", sel, len(sel)}} {
			b.Run(fmt.Sprintf("w=%d/%s", w, m.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.decode(dst, m.sel, 0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.n), "ns/value")
			})
		}
	}
}
