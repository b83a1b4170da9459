// Package engine implements the in-memory columnar database engine that the
// AQP middleware runs against. It plays the role of the "standard commercial
// database management system running on a back-end server" from §5 of the
// paper: it stores base tables and sample tables as ordinary relations,
// executes aggregation queries with group-bys over single tables and over
// star schemas (fact table joined to dimension tables via foreign keys), and
// supports the per-row weights and scaling that rewritten sample queries
// require.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Type identifies the storage type of a column or value.
type Type uint8

// Supported column types.
const (
	Int Type = iota
	Float
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a dynamically typed scalar. Values are comparable with == when
// their types match, and are usable as map keys.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// IntVal returns an Int-typed value.
func IntVal(v int64) Value { return Value{T: Int, I: v} }

// FloatVal returns a Float-typed value.
func FloatVal(v float64) Value { return Value{T: Float, F: v} }

// StringVal returns a String-typed value.
func StringVal(v string) Value { return Value{T: String, S: v} }

// Float returns the value as a float64 for aggregation. String values are 0.
func (v Value) Float() float64 {
	switch v.T {
	case Int:
		return float64(v.I)
	case Float:
		return v.F
	default:
		return 0
	}
}

// Less orders values of the same type. Ordering across types follows the
// Type order so that sorting mixed slices is stable and deterministic.
func (v Value) Less(o Value) bool {
	if v.T != o.T {
		return v.T < o.T
	}
	switch v.T {
	case Int:
		return v.I < o.I
	case Float:
		return v.F < o.F
	default:
		return v.S < o.S
	}
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.T {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "'" + v.S + "'"
	}
}

// GroupKey is an encoded tuple of group-by values, usable as a map key.
type GroupKey string

// EncodeKey packs a tuple of values into a GroupKey. The encoding is
// injective: distinct tuples produce distinct keys.
func EncodeKey(vals []Value) GroupKey {
	return GroupKey(AppendKey(make([]byte, 0, len(vals)*9), vals))
}

// AppendKey appends the GroupKey encoding of vals to dst and returns the
// extended slice. The executor reuses one buffer per scan so the per-row map
// probe allocates nothing.
func AppendKey(dst []byte, vals []Value) []byte {
	var tmp [8]byte
	for _, v := range vals {
		dst = append(dst, byte(v.T))
		switch v.T {
		case Int:
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			dst = append(dst, tmp[:]...)
		case Float:
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			dst = append(dst, tmp[:]...)
		case String:
			binary.LittleEndian.PutUint64(tmp[:], uint64(len(v.S)))
			dst = append(dst, tmp[:]...)
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// DecodeKeyChecked unpacks a GroupKey produced by EncodeKey, returning an
// error on malformed bytes: keys deserialised from untrusted input (e.g. a
// corrupted sample store) go through it.
func DecodeKeyChecked(k GroupKey) ([]Value, error) {
	b := []byte(k)
	var vals []Value
	for len(b) > 0 {
		t := Type(b[0])
		b = b[1:]
		switch t {
		case Int:
			if len(b) < 8 {
				return nil, fmt.Errorf("engine: corrupt group key: short int value")
			}
			vals = append(vals, IntVal(int64(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case Float:
			if len(b) < 8 {
				return nil, fmt.Errorf("engine: corrupt group key: short float value")
			}
			vals = append(vals, FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case String:
			if len(b) < 8 {
				return nil, fmt.Errorf("engine: corrupt group key: short string header")
			}
			n := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if n > uint64(len(b)) {
				return nil, fmt.Errorf("engine: corrupt group key: string length %d exceeds %d remaining bytes", n, len(b))
			}
			vals = append(vals, StringVal(string(b[:n])))
			b = b[n:]
		default:
			return nil, fmt.Errorf("engine: corrupt group key, type byte %d", t)
		}
	}
	return vals, nil
}
