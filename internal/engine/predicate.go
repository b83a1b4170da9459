package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Predicate is a selection condition on a single column. Queries AND their
// predicates together, matching the workload of §5.2.3 ("the WHERE clause
// included the conjunction of all predicates").
type Predicate interface {
	// Column names the column the predicate tests.
	Column() string
	// Matches reports whether a value satisfies the predicate.
	Matches(v Value) bool
	// String renders the predicate as SQL.
	String() string
}

// InPredicate restricts a column to a set of values — the predicate form the
// paper's workload generator produces ("restricting to rows whose values for
// that column were from a randomly-chosen subset of the distinct values").
type InPredicate struct {
	Col string
	Set map[Value]struct{}
}

// NewIn builds an InPredicate over the given values.
func NewIn(col string, vals ...Value) *InPredicate {
	set := make(map[Value]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return &InPredicate{Col: col, Set: set}
}

// Column implements Predicate.
func (p *InPredicate) Column() string { return p.Col }

// Matches implements Predicate.
func (p *InPredicate) Matches(v Value) bool {
	_, ok := p.Set[v]
	return ok
}

// Values returns the predicate's value set in deterministic order.
func (p *InPredicate) Values() []Value {
	vals := make([]Value, 0, len(p.Set))
	for v := range p.Set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
	return vals
}

// String implements Predicate.
func (p *InPredicate) String() string {
	var sb strings.Builder
	sb.WriteString(p.Col)
	sb.WriteString(" IN (")
	for i, v := range p.Values() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CmpOp is a scalar comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// CmpPredicate compares a column against a literal.
type CmpPredicate struct {
	Col string
	Op  CmpOp
	Val Value
}

// NewCmp builds a comparison predicate.
func NewCmp(col string, op CmpOp, val Value) *CmpPredicate {
	return &CmpPredicate{Col: col, Op: op, Val: val}
}

// Column implements Predicate.
func (p *CmpPredicate) Column() string { return p.Col }

// Matches implements Predicate.
func (p *CmpPredicate) Matches(v Value) bool {
	switch p.Op {
	case Eq:
		return v == p.Val
	case Ne:
		return v != p.Val
	case Lt:
		return v.Less(p.Val)
	case Le:
		return !p.Val.Less(v)
	case Gt:
		return p.Val.Less(v)
	case Ge:
		return !v.Less(p.Val)
	default:
		panic(fmt.Sprintf("engine: bad CmpOp %d", p.Op))
	}
}

// String implements Predicate.
func (p *CmpPredicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Val)
}

// RangePredicate keeps values in [Lo, Hi] (BETWEEN semantics, inclusive).
type RangePredicate struct {
	Col    string
	Lo, Hi Value
}

// NewRange builds a BETWEEN predicate.
func NewRange(col string, lo, hi Value) *RangePredicate {
	return &RangePredicate{Col: col, Lo: lo, Hi: hi}
}

// Column implements Predicate.
func (p *RangePredicate) Column() string { return p.Col }

// Matches implements Predicate.
func (p *RangePredicate) Matches(v Value) bool {
	return !v.Less(p.Lo) && !p.Hi.Less(v)
}

// String implements Predicate.
func (p *RangePredicate) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", p.Col, p.Lo, p.Hi)
}

// boundPred is a predicate bound to one column of a source for the scan
// kernel. A string column's verdict is worked out once per dictionary entry,
// and an integer column's once per value when its chunks bound it to
// passLimit values (intBounds); any other numeric column is tested by a
// typed compare (numPred); only a Predicate implementation this package does
// not know is handed boxed values, row by row, on such a column.
type boundPred struct {
	view   ColumnView
	pass   []uint8 // 1 where Matches: by dictionary code, or by v − base
	base   int64
	ints   *numPred[int64]
	floats *numPred[float64]
	boxed  Predicate
}

// passLimit is how many values an integer column may be bounded to for a
// predicate to be evaluated once per value: a table of a byte's worth of
// codes costs a bind a few microseconds.
const passLimit = 256

func bindPredicate(p Predicate, v ColumnView) boundPred {
	bp := boundPred{view: v}
	switch v.Type {
	case String:
		bp.pass = make([]uint8, len(v.Dict))
		for code, s := range v.Dict {
			if p.Matches(StringVal(s)) {
				bp.pass[code] = 1
			}
		}
	case Int:
		if lo, hi := intBounds(&v.ints, v.rows); v.rows > 0 && uint64(hi)-uint64(lo) < passLimit {
			bp.pass, bp.base = make([]uint8, hi-lo+1), lo
			for i := range bp.pass {
				if p.Matches(IntVal(lo + int64(i))) {
					bp.pass[i] = 1
				}
			}
		} else if bp.ints = compileNumeric(p, Int, func(v Value) int64 { return v.I }, math.MinInt64, math.MaxInt64); bp.ints == nil {
			bp.boxed = p
		}
	default:
		if bp.floats = compileNumeric(p, Float, func(v Value) float64 { return v.F }, math.Inf(-1), math.Inf(1)); bp.floats == nil {
			bp.boxed = p
		}
	}
	return bp
}

// keep narrows sel, in place, to the rows of the block at lo that satisfy
// the predicate.
func (p *boundPred) keep(sel []int32, lo int, buf *blockBuf) []int32 {
	v := &p.view
	switch {
	case v.Type == String:
		codes, at := window(&v.codes, v, sel, lo, buf.codes, buf)
		k := 0
		for j, a := range at {
			sel[k] = sel[j] // branch-free: kept only if k moves on
			k += int(p.pass[codes[a]])
		}
		return sel[:k]
	case v.Type == Int:
		ints, at := window(&v.ints, v, sel, lo, buf.ints, buf)
		if p.pass != nil {
			k := 0
			for j, a := range at {
				sel[k] = sel[j]
				k += int(p.pass[ints[a]-p.base])
			}
			return sel[:k]
		}
		if p.ints != nil {
			return p.ints.keep(sel, at, ints)
		}
		return keepBoxed(p.boxed, sel, at, ints, IntVal)
	default:
		floats, at := window(&v.floats, v, sel, lo, buf.floats, buf)
		if p.floats != nil {
			return p.floats.keep(sel, at, floats)
		}
		return keepBoxed(p.boxed, sel, at, floats, FloatVal)
	}
}

// keepBoxed hands a Predicate implementation this package does not know each
// row's boxed value.
func keepBoxed[T any](p Predicate, sel, at []int32, vals []T, box func(T) Value) []int32 {
	k := 0
	for j, a := range at {
		if p.Matches(box(vals[a])) {
			sel[k] = sel[j]
			k++
		}
	}
	return sel[:k]
}

// numPred is In, Cmp or Range on a numeric column, compiled so that a row's
// verdict is Matches' to the bit without boxing the value: x passes when
// (x is in set) != neg for a set test, (!(x < lo) && !(hi < x)) != neg
// otherwise. Written with < and == only, the two forms give NaN and ±0
// exactly what Value.Less and Value == give them: NaN is below and above
// nothing and equal to nothing, the zeros are equal.
type numPred[T int64 | float64] struct {
	isSet  bool
	set    []T // ascending
	lo, hi T
	neg    bool
}

// compileNumeric compiles p for a column of type typ whose values Value
// holds in the given field; min and max are the bounds every x lies within.
// It returns nil for a Predicate implementation it does not know.
func compileNumeric[T int64 | float64](p Predicate, typ Type, field func(Value) T, min, max T) *numPred[T] {
	// A column value is Value{T: typ} with only its own field set, so a
	// literal carrying anything else equals no row.
	member := func(set []T, v Value) []T {
		own := v.T == typ && v.S == "" && (typ == Int && v.F == 0 || typ == Float && v.I == 0)
		if x := field(v); own && x == x {
			set = append(set, x)
		}
		return set
	}
	none := &numPred[T]{isSet: true}
	// Value.Less orders by type before value: against a literal of another
	// type, one side of a range admits every row or none.
	atLeast := func(np *numPred[T], lit Value) *numPred[T] { // !v.Less(lit)
		switch {
		case lit.T == typ:
			np.lo = field(lit)
		case typ < lit.T:
			return none
		}
		return np
	}
	atMost := func(np *numPred[T], lit Value) *numPred[T] { // !lit.Less(v)
		switch {
		case lit.T == typ:
			np.hi = field(lit)
		case lit.T < typ:
			return none
		}
		return np
	}
	all := func() *numPred[T] { return &numPred[T]{lo: min, hi: max} }
	negate := func(np *numPred[T]) *numPred[T] {
		cp := *np
		cp.neg = !cp.neg
		return &cp
	}

	switch p := p.(type) {
	case *InPredicate:
		np := &numPred[T]{isSet: true}
		for v := range p.Set {
			np.set = member(np.set, v)
		}
		sort.Slice(np.set, func(i, j int) bool { return np.set[i] < np.set[j] })
		return np
	case *RangePredicate:
		np := atLeast(all(), p.Lo)
		if np.isSet {
			return np
		}
		return atMost(np, p.Hi)
	case *CmpPredicate:
		switch p.Op {
		case Eq:
			return &numPred[T]{isSet: true, set: member(nil, p.Val)}
		case Ne:
			return &numPred[T]{isSet: true, set: member(nil, p.Val), neg: true}
		case Ge:
			return atLeast(all(), p.Val)
		case Lt:
			return negate(atLeast(all(), p.Val))
		case Le:
			return atMost(all(), p.Val)
		case Gt:
			return negate(atMost(all(), p.Val))
		default:
			panic(fmt.Sprintf("engine: bad CmpOp %d", p.Op))
		}
	}
	return nil
}

func (p *numPred[T]) keep(sel, at []int32, vals []T) []int32 {
	k := 0
	if p.isSet {
		for j, a := range at {
			x := vals[a]
			// Binary search with <, then ==: a NaN finds nothing, −0 finds +0.
			lo, hi := 0, len(p.set)
			for lo < hi {
				if m := int(uint(lo+hi) >> 1); p.set[m] < x {
					lo = m + 1
				} else {
					hi = m
				}
			}
			if (lo < len(p.set) && p.set[lo] == x) != p.neg {
				sel[k] = sel[j]
				k++
			}
		}
		return sel[:k]
	}
	lo, hi, neg := p.lo, p.hi, p.neg
	for j, a := range at {
		if x := vals[a]; (!(x < lo) && !(hi < x)) != neg {
			sel[k] = sel[j]
			k++
		}
	}
	return sel[:k]
}
