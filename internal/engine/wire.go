package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dynsample/internal/binio"
)

// This file is the binary form of a partial Result, the section of a shard's
// raw answer that carries its groups, so the cluster tier can move raw
// per-group accumulators — not just presented values — between a shard and
// the coordinator. The coordinator re-merges decoded partials with
// Result.Merge, which needs every additive accumulator (Vals, RawSum,
// RawSumSq, VarAcc, RawRows) and the Exact flags.
//
// The section is, in binio fields:
//
//	group-by   [count u32] then that many strings
//	aggregates [count u32] then per aggregate [kind u8][column string]
//	rows       [scanned u64][matched u64]
//	groups     [count u32] then per group, in ascending key order:
//	           [EncodeKey bytes as a string][RawRows u64][Exact flag]
//	           [Vals][RawSum][RawSumSq][VarAcc], one f64 per aggregate each

// maxPartialGroups bounds how many groups one decoded partial may carry, so
// a corrupt or hostile count cannot make the coordinator allocate
// unboundedly.
const maxPartialGroups = 1 << 22

// AppendPartial appends r's section to dst. Groups go in ascending key order,
// so equal results encode to equal bytes.
func AppendPartial(dst []byte, r *Result) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(r.GroupBy)))
	for _, c := range r.GroupBy {
		dst = binio.AppendString(dst, c)
	}
	dst = le.AppendUint32(dst, uint32(len(r.Aggs)))
	for _, a := range r.Aggs {
		dst = binio.AppendString(append(dst, byte(a.Kind)), a.Col)
	}
	dst = le.AppendUint64(le.AppendUint64(dst, uint64(r.RowsScanned)), uint64(r.RowsMatched))
	keys := r.Keys()
	size := len(keys) * (13 + 32*len(r.Aggs))
	for _, k := range keys {
		size += len(k)
	}
	dst = le.AppendUint32(slices.Grow(dst, 4+size), uint32(len(keys)))
	for _, k := range keys {
		g := r.groups[string(k)]
		dst = binio.AppendString(dst, string(k))
		dst = binio.AppendBool(le.AppendUint64(dst, uint64(g.RawRows)), g.Exact)
		for _, run := range [4][]float64{g.Vals, g.RawSum, g.RawSumSq, g.VarAcc} {
			for _, v := range run {
				dst = le.AppendUint64(dst, math.Float64bits(v))
			}
		}
	}
	return dst
}

// ReadPartial reads a section AppendPartial wrote from a record in memory
// (binio.NewBytesReader). The bytes cross a network, so every shape
// invariant is checked: a damaged or hostile section produces an error,
// never a Result that Merge would silently mis-combine, and a count is
// refused before it sizes anything the remaining bytes cannot fill.
func ReadPartial(in *binio.Reader) (*Result, error) {
	groupBy := in.Strings(maxTableColumns, maxTableString, "group-by column count")
	na := in.Count(maxTableColumns, "aggregate count")
	aggs := make([]Aggregate, 0, min(na, 64))
	for i := 0; i < na && in.Err() == nil; i++ {
		a := Aggregate{Kind: AggKind(in.U8()), Col: in.String(maxTableString)}
		if a.Kind != Count && a.Kind != Sum {
			in.Fail(fmt.Errorf("engine: partial aggregate %d has unknown kind %d", i, a.Kind))
		}
		aggs = append(aggs, a)
	}
	res := NewResult(groupBy, aggs)
	res.RowsScanned, res.RowsMatched = int64(in.U64()), int64(in.U64())
	if in.Err() == nil && (res.RowsScanned < 0 || res.RowsMatched < 0) {
		in.Fail(fmt.Errorf("engine: partial has negative row counts (%d scanned, %d matched)",
			res.RowsScanned, res.RowsMatched))
	}
	n, k := in.Count(maxPartialGroups, "group count"), len(groupBy)
	// A group is at least its key's length, RawRows, Exact and 4·na floats.
	if left := in.Len(); in.Err() == nil && n*(13+32*na) > left {
		in.Fail(fmt.Errorf("engine: partial declares %d groups but only %d bytes remain", n, left))
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	groups, accs, vals := make([]Group, n), make([]float64, n*4*na), make([]Value, 0, n*k)
	res.groups = make(map[string]*Group, n)
	var prev string
	for i := range groups {
		key, g, acc := in.String(maxTableString), &groups[i], accs[i*4*na:(i+1)*4*na]
		g.RawRows, g.Exact = int64(in.U64()), in.Bool()
		for j := range acc {
			acc[j] = in.F64()
		}
		if err := in.Err(); err != nil {
			return nil, err
		}
		var err error
		start := len(vals)
		if vals, err = appendKeyValues(vals, GroupKey(key)); err != nil {
			return nil, fmt.Errorf("engine: partial group %d: %w", i, err)
		}
		switch {
		case len(vals)-start != k:
			return nil, fmt.Errorf("engine: partial group %d has %d key values, query groups by %d columns",
				i, len(vals)-start, k)
		case i > 0 && key <= prev:
			if key == prev {
				return nil, fmt.Errorf("engine: partial repeats group %v", vals[start:])
			}
			return nil, fmt.Errorf("engine: partial group %d is out of key order", i)
		case g.RawRows < 0:
			return nil, fmt.Errorf("engine: partial group %d has negative raw row count %d", i, g.RawRows)
		}
		for _, v := range acc {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("engine: partial group %d carries NaN accumulators", i)
			}
		}
		g.Key = vals[start:len(vals):len(vals)]
		g.window(acc, na)
		res.groups[key] = g
		prev = key
	}
	res.n = n
	return res, nil
}
