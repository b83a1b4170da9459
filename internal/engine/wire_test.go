package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynsample/internal/binio"
)

// wireTestResult builds a small result with every accumulator populated and
// a mixed-type group key (string, int, float).
func wireTestResult(t *testing.T) *Result {
	t.Helper()
	res := NewResult([]string{"region", "tier", "rate"},
		[]Aggregate{{Kind: Count}, {Kind: Sum, Col: "amount"}})
	for i, row := range []struct {
		region string
		tier   int64
		rate   float64
		exact  bool
	}{
		{"west", 1, 0.25, false},
		{"east", 2, 0.5, true},
		{"", 0, -1.5, false}, // empty string and zero values must survive
	} {
		key := []Value{StringVal(row.region), IntVal(row.tier), FloatVal(row.rate)}
		g := res.Upsert(EncodeKey(key), func() []Value { return key })
		g.Vals = []float64{float64(10 * (i + 1)), float64(100 * (i + 1))}
		g.RawRows = int64(i + 1)
		g.RawSum = []float64{float64(i + 1), float64(7 * (i + 1))}
		g.RawSumSq = []float64{float64(i + 1), float64(49 * (i + 1))}
		g.VarAcc = []float64{0.5 * float64(i), 1.5 * float64(i)}
		g.Exact = row.exact
	}
	res.RowsScanned = 42
	res.RowsMatched = 17
	return res
}

// readPartial reads a whole section: bytes past it are an error.
func readPartial(b []byte) (*Result, error) {
	in := binio.NewBytesReader(b)
	res, err := ReadPartial(in)
	if err == nil && in.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", in.Len())
	}
	return res, err
}

// partialForm is a result section field by field, so a test can damage one
// field and encode the rest as AppendPartial lays them out.
type partialForm struct {
	groupBy          []string
	aggs             []Aggregate
	scanned, matched int64
	groups           []groupForm
}

type groupForm struct {
	key     []byte
	rawRows int64
	exact   byte
	acc     [4][]float64
}

func formOf(r *Result) partialForm {
	f := partialForm{groupBy: r.GroupBy, aggs: r.Aggs, scanned: r.RowsScanned, matched: r.RowsMatched}
	for _, g := range r.Groups() {
		gf := groupForm{key: []byte(EncodeKey(g.Key)), rawRows: g.RawRows}
		if g.Exact {
			gf.exact = 1
		}
		for i, run := range [4][]float64{g.Vals, g.RawSum, g.RawSumSq, g.VarAcc} {
			gf.acc[i] = append([]float64(nil), run...)
		}
		f.groups = append(f.groups, gf)
	}
	return f
}

func (f partialForm) encode() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(len(f.groupBy)))
	for _, c := range f.groupBy {
		b = binio.AppendString(b, c)
	}
	b = le.AppendUint32(b, uint32(len(f.aggs)))
	for _, a := range f.aggs {
		b = binio.AppendString(append(b, byte(a.Kind)), a.Col)
	}
	b = le.AppendUint64(le.AppendUint64(b, uint64(f.scanned)), uint64(f.matched))
	b = le.AppendUint32(b, uint32(len(f.groups)))
	for _, g := range f.groups {
		b = append(le.AppendUint64(binio.AppendString(b, string(g.key)), uint64(g.rawRows)), g.exact)
		for _, run := range g.acc {
			for _, v := range run {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	res := wireTestResult(t)
	raw := AppendPartial(nil, res)
	got, err := readPartial(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsScanned != res.RowsScanned || got.RowsMatched != res.RowsMatched {
		t.Errorf("row counts = %d/%d, want %d/%d",
			got.RowsScanned, got.RowsMatched, res.RowsScanned, res.RowsMatched)
	}
	if got.NumGroups() != res.NumGroups() {
		t.Fatalf("groups = %d, want %d", got.NumGroups(), res.NumGroups())
	}
	for _, k := range res.Keys() {
		want := res.Group(k)
		g := got.Group(k)
		if g == nil {
			t.Fatalf("group %q lost in round trip", k)
		}
		if g.RawRows != want.RawRows || g.Exact != want.Exact || !reflect.DeepEqual(g.Key, want.Key) {
			t.Errorf("group %q: key/rawRows/exact = %v/%d/%v, want %v/%d/%v",
				k, g.Key, g.RawRows, g.Exact, want.Key, want.RawRows, want.Exact)
		}
		for i := range want.Vals {
			if g.Vals[i] != want.Vals[i] || g.RawSum[i] != want.RawSum[i] ||
				g.RawSumSq[i] != want.RawSumSq[i] || g.VarAcc[i] != want.VarAcc[i] {
				t.Errorf("group %q agg %d accumulators differ", k, i)
			}
		}
	}
	if again := AppendPartial(nil, got); !bytes.Equal(again, raw) {
		t.Error("a decoded partial re-encodes to other bytes")
	}
	// A round-tripped partial must be mergeable with the original shape.
	if err := res.Merge(got); err != nil {
		t.Errorf("merging round-tripped result: %v", err)
	}
	// So must an empty one, and one grouped by nothing.
	for _, r := range []*Result{NewResult([]string{"a"}, []Aggregate{{Kind: Count}}), NewResult(nil, []Aggregate{{Kind: Count}})} {
		if len(r.GroupBy) == 0 {
			r.Upsert(EncodeKey(nil), func() []Value { return nil }).Vals[0] = 3
		}
		back, err := readPartial(AppendPartial(nil, r))
		if err != nil || back.NumGroups() != r.NumGroups() {
			t.Fatalf("%v grouped by %v: %v", back, r.GroupBy, err)
		}
	}
}

func TestWireDeterministicEncoding(t *testing.T) {
	a, b := AppendPartial(nil, wireTestResult(t)), AppendPartial(nil, wireTestResult(t))
	if !bytes.Equal(a, b) {
		t.Error("wire encoding is not deterministic across equal results")
	}
	// The layout is the one documented field by field.
	if form := formOf(wireTestResult(t)).encode(); !bytes.Equal(a, form) {
		t.Errorf("AppendPartial wrote\n%x\nthe documented layout is\n%x", a, form)
	}
}

// TestWireRejectsHostileInput feeds shape-violating sections to ReadPartial;
// each must error, never panic or yield a Result that Merge would
// mis-combine.
func TestWireRejectsHostileInput(t *testing.T) {
	res := wireTestResult(t)
	last := res.NumGroups() - 1
	key0 := res.Groups()[0].Key
	cases := []struct {
		name string
		mut  func(*partialForm)
		want string
	}{
		{"short key", func(f *partialForm) { f.groups[0].key = []byte(EncodeKey(key0[:1])) }, "key values"},
		{"long key", func(f *partialForm) {
			f.groups[0].key = append(f.groups[0].key, EncodeKey([]Value{IntVal(9)})...)
		}, "key values"},
		// The runs are fixed-width: a short one leaves the section short.
		{"short vals", func(f *partialForm) { f.groups[last].acc[0] = f.groups[last].acc[0][:1] }, "unexpected EOF"},
		{"short varacc", func(f *partialForm) { f.groups[last].acc[3] = nil }, "unexpected EOF"},
		{"bad value tag", func(f *partialForm) { f.groups[0].key[0] = 99 }, "type byte 99"},
		{"bad agg kind", func(f *partialForm) { f.aggs = []Aggregate{f.aggs[0], {Kind: 200}} }, "unknown kind"},
		{"negative raw rows", func(f *partialForm) { f.groups[0].rawRows = -5 }, "negative raw row"},
		{"negative scanned", func(f *partialForm) { f.scanned = -1 }, "negative row counts"},
		{"nan accumulator", func(f *partialForm) { f.groups[0].acc[2][0] = math.NaN() }, "NaN"},
		{"duplicate group", func(f *partialForm) { f.groups = append(f.groups, f.groups[last]) }, "repeats group"},
		{"out of order", func(f *partialForm) { f.groups[0], f.groups[1] = f.groups[1], f.groups[0] }, "out of key order"},
		{"bad exact flag", func(f *partialForm) { f.groups[0].exact = 2 }, "flag byte 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := formOf(res)
			tc.mut(&f)
			_, err := readPartial(f.encode())
			if err == nil {
				t.Fatal("hostile section accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A group count past the bound, or past what the bytes behind it can
	// hold, is refused before it sizes anything.
	head := formOf(res)
	head.groups = nil
	for _, c := range []struct {
		name  string
		count uint32
		want  string
	}{
		{"group count past the bound", maxPartialGroups + 1, "unreasonable group count"},
		{"group count past the bytes", maxPartialGroups, "declares 4194304 groups"},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := head.encode()
			binary.LittleEndian.PutUint32(b[len(b)-4:], c.count)
			b = append(b, formOf(res).encode()[len(b):]...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readPartial(b)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not mention %q", err, c.want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("refusing the count allocated %d bytes", n)
			}
		})
	}

	t.Run("every truncation point", func(t *testing.T) {
		b := AppendPartial(nil, res)
		for n := 0; n < len(b); n++ {
			if _, err := readPartial(b[:n]); err == nil {
				t.Fatalf("the first %d of %d bytes decoded", n, len(b))
			}
		}
	})
}

func TestMergeRejectsMismatchedGroupBy(t *testing.T) {
	a := NewResult([]string{"region"}, []Aggregate{{Kind: Count}})
	b := NewResult([]string{"region", "tier"}, []Aggregate{{Kind: Count}})
	if err := a.Merge(b); err == nil {
		t.Error("merge across different group-by arity accepted")
	}
	c := NewResult([]string{"city"}, []Aggregate{{Kind: Count}})
	if err := a.Merge(c); err == nil {
		t.Error("merge across different group-by columns accepted")
	}
	d := NewResult([]string{"region"}, []Aggregate{{Kind: Count}})
	if err := a.Merge(d); err != nil {
		t.Errorf("merge of matching shapes rejected: %v", err)
	}
}
