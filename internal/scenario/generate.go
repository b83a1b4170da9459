package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"dynsample/internal/engine"
	"dynsample/internal/parallel"
	"dynsample/internal/randx"
)

// Generate materialises the spec into an engine star schema. Tables are
// seeded in topological FK order (referenced tables first), all randomness
// flows from one generator seeded with Spec.Seed, and the same spec+seed
// yields a bit-identical database on every run, on any number of cores: the
// calling goroutine alone reads the generator, in a fixed order, and the
// columns are filled from what it drew on the others (see generateRows).
func Generate(s *Spec) (*engine.Database, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	order, err := s.topoOrder()
	if err != nil {
		return nil, err
	}
	rng := randx.New(s.Seed)
	built := make(map[string]*engine.Table, len(order))
	var fact *engine.Table
	var dims []engine.DimJoin
	for _, t := range order {
		tbl, joins, err := generateTable(t, built, rng)
		if err != nil {
			return nil, err
		}
		built[t.Name] = tbl
		if t.Fact {
			fact = tbl
			dims = joins
		}
	}
	return engine.NewDatabase(s.Name, fact, dims...)
}

// generateTable builds one table. For the fact table it also returns the
// dimension joins its FKs induce; dimension FKs instead inline the
// referenced table's columns.
func generateTable(t *TableSpec, built map[string]*engine.Table, rng *rand.Rand) (*engine.Table, []engine.DimJoin, error) {
	cols, groups, err := newDrawers(t, rng)
	if err != nil {
		return nil, nil, err
	}
	// One lane of variates per column, then one per FK: the parent row each
	// row draws. Every lane is filled by the columns that read it.
	var draws []func(*rand.Rand) float64
	var fills []func(lanes [][]float64)
	var all []*engine.Column
	fillFrom := func(d *drawer, l int) {
		all = append(all, d.col)
		fills = append(fills, func(lanes [][]float64) { d.fill(lanes[l]) })
	}
	for l, c := range cols {
		draws = append(draws, c.draw)
		fillFrom(c, l)
	}
	var joins []engine.DimJoin
	for _, fk := range t.FKs {
		parent := built[fk.References]
		if parent == nil {
			return nil, nil, fmt.Errorf("scenario: internal: table %q generated before its reference %q", t.Name, fk.References)
		}
		l, parentRows := len(draws), parent.NumRows()
		draws = append(draws, func(rng *rand.Rand) float64 { return float64(rng.Intn(parentRows)) })
		if t.Fact {
			// A fact FK is a physical int column of row ids into the dimension.
			fillFrom(&drawer{col: engine.NewColumn(fk.Column, engine.Int), value: func(x float64) float64 { return x }}, l)
			joins = append(joins, engine.DimJoin{Table: parent, FK: fk.Column})
			continue
		}
		// A dimension FK inlines the parent: each row copies its parent row's
		// columns, so they ride along correlated. A parent column is a domain
		// indexed by parent row.
		for _, pc := range parent.Columns() {
			vals := make([]engine.Value, parentRows)
			for r := range vals {
				vals[r] = pc.Value(r)
			}
			fillFrom(&drawer{col: engine.NewColumn(pc.Name, pc.Type), dom: newDomain(vals), index: laneIndex}, l)
		}
	}
	if err := generateRows(t.Rows, rng, groups, draws, fills); err != nil {
		return nil, nil, err
	}
	// NewTable adopts the row count from the pre-filled columns.
	return engine.NewTable(t.Name, all...), joins, nil
}

// laneIndex is the index of a lane that holds indices itself: a correlated
// group's draws, a parent row.
func laneIndex(v float64) int { return int(v) }

// blockRows is how many rows' variates a block holds: a sealed chunk's.
const blockRows = 1024

// ringBlocks is how many blocks exist: one being drawn into while the others
// wait to be filled or are being filled.
const ringBlocks = 4

// generateRows generates a table's rows. This goroutine, the only reader of
// rng, draws each row's variates in the stream's fixed order — the correlated
// groups in declaration order, then every lane in turn (the independent
// columns in declared order, then the FKs) — into a block. Another goroutine
// hands each full block to the fills, one per column, on up to GOMAXPROCS
// goroutines, while the next block is drawn; they append and seal, and apply
// whatever is a pure function of a variate (an inverse CDF, exp). Columns
// are independent, so which goroutine fills one changes nothing in it, and a
// column's blocks are filled in order. Whatever reads the stream a data-dependent
// number of times — Intn's rejection, a noise coin, a joint state — stays in
// the draws. A fill's panic is returned as the error, and stops the drawing.
func generateRows(rows int, rng *rand.Rand, groups []*groupDrawer, draws []func(*rand.Rand) float64, fills []func([][]float64)) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	free, full, done := make(chan [][]float64, ringBlocks), make(chan [][]float64, ringBlocks), make(chan error, 1)
	for range ringBlocks {
		lanes := make([][]float64, len(draws))
		for l := range lanes {
			lanes[l] = make([]float64, blockRows)
		}
		free <- lanes
	}
	workers := runtime.GOMAXPROCS(0)
	go func() {
		var err error
		for lanes := range full {
			if err == nil {
				if err = parallel.ForEachCtx(ctx, workers, len(fills), func(i int) error { fills[i](lanes); return nil }); err != nil {
					cancel()
				}
			}
			free <- lanes
		}
		done <- err
	}()
	func() {
		defer close(full)
		for lo := 0; lo < rows && ctx.Err() == nil; lo += blockRows {
			lanes, n := <-free, min(blockRows, rows-lo)
			for l := range lanes {
				lanes[l] = lanes[l][:n]
			}
			for r := range n {
				for _, g := range groups {
					g.drawRow(rng)
					for slot, l := range g.lanes {
						lanes[l][r] = float64(g.current[slot])
					}
				}
				for l, draw := range draws {
					if draw != nil {
						lanes[l][r] = draw(rng)
					}
				}
			}
			full <- lanes
		}
	}()
	return <-done
}

// domain is a categorical column's values, by index, and for strings each
// one's dictionary code plus one, once the value has been interned.
type domain struct {
	vals  []engine.Value
	codes []int32
}

func newDomain(vals []engine.Value) *domain {
	return &domain{vals: vals, codes: make([]int32, len(vals))}
}

// code returns the dictionary code of string value i in col. A value is
// interned on first sight, in row order, so codes are given in order of first
// appearance, as appending the strings one by one would give them.
func (d *domain) code(col *engine.Column, i int) int32 {
	if d.codes[i] == 0 {
		d.codes[i] = col.Intern(d.vals[i].S) + 1
	}
	return d.codes[i] - 1
}

// drawer generates one column in two halves. draw takes a row's variate from
// the seeded stream; it is nil for a column whose lane another draws: a
// correlated group's, an FK's. fill turns a block of variates into the typed
// values they stand for and appends them in one call, which seals them as
// one chunk; it reads no stream, so it may run on any goroutine.
type drawer struct {
	col   *engine.Column
	draw  func(rng *rand.Rand) float64
	dom   *domain
	index func(v float64) int     // a categorical column's index into dom
	value func(x float64) float64 // a numeric column's value (rounded for Int)
	block struct {                // the typed block fill appends; one is used
		codes  []int32
		ints   []int64
		floats []float64
	}
}

func (d *drawer) fill(vs []float64) {
	switch b := &d.block; d.col.Type {
	case engine.String:
		codes := blockOf(&b.codes, len(vs))
		for j, v := range vs {
			codes[j] = d.dom.code(d.col, d.index(v))
		}
		d.col.AppendCodes(codes)
	case engine.Int:
		ints := blockOf(&b.ints, len(vs))
		for j, v := range vs {
			if d.dom != nil {
				ints[j] = d.dom.vals[d.index(v)].I
			} else {
				ints[j] = int64(math.Round(d.value(v)))
			}
		}
		d.col.AppendInts(ints)
	default:
		floats := blockOf(&b.floats, len(vs))
		for j, v := range vs {
			if d.dom != nil {
				floats[j] = d.dom.vals[d.index(v)].F
			} else {
				floats[j] = d.value(v)
			}
		}
		d.col.AppendFloats(floats)
	}
}

// blockOf returns the first n of *b, which it makes a block long on first use.
func blockOf[T any](b *[]T, n int) []T {
	if *b == nil {
		*b = make([]T, blockRows)
	}
	return (*b)[:n]
}

// groupDrawer resolves one correlated group per row into current: per column
// of the group, in its order, the row's index into that column's domain,
// which is that column's variate (lanes, by slot).
type groupDrawer struct {
	current []int
	lanes   []int
	drawRow func(rng *rand.Rand)
}

// newDrawers compiles the table's columns (declared + padding) and
// correlated groups into drawers.
func newDrawers(t *TableSpec, setupRng *rand.Rand) ([]*drawer, []*groupDrawer, error) {
	specs := append([]ColumnSpec(nil), t.Columns...)
	if p := t.Padding; p != nil {
		cards := p.Cards
		if len(cards) == 0 {
			cards = defaultPaddingCards
		}
		for i, name := range t.paddingNames() {
			specs = append(specs, ColumnSpec{
				Name: name,
				Type: TypeString,
				Dist: DistSpec{Kind: DistZipf, Card: cards[i%len(cards)], Z: p.Z, TailMass: p.TailMass},
			})
		}
	}
	byName := make(map[string]*ColumnSpec, len(specs))
	drawers := make([]*drawer, len(specs))
	index := make(map[string]int, len(specs))
	for i := range specs {
		c := &specs[i]
		byName[c.Name] = c
		index[c.Name] = i
		drawers[i] = &drawer{col: engine.NewColumn(c.Name, colType(c.Type))}
		if err := drawers[i].compile(c); err != nil {
			return nil, nil, err
		}
	}

	var groups []*groupDrawer
	for gi := range t.Correlated {
		g := &t.Correlated[gi]
		gd := &groupDrawer{current: make([]int, len(g.Columns)), lanes: make([]int, len(g.Columns))}
		members := make([]*drawer, len(g.Columns))
		for slot, cn := range g.Columns {
			gd.lanes[slot] = index[cn]
			members[slot] = drawers[index[cn]]
			members[slot].draw, members[slot].index = nil, laneIndex
		}
		switch g.Kind {
		case CorrFD:
			gd.drawRow = newFDDraw(g, byName, gd, setupRng)
		case CorrJoint:
			joint, err := newJointDraw(g, byName, gd, members)
			if err != nil {
				return nil, nil, err
			}
			gd.drawRow = joint
		}
		groups = append(groups, gd)
	}
	return drawers, groups, nil
}

// compile sets the drawer up for the column's own distribution.
func (dr *drawer) compile(c *ColumnSpec) error {
	d := &c.Dist
	dr.draw = (*rand.Rand).Float64
	switch d.Kind {
	case DistZipf, DistUniform:
		dr.dom, dr.index = newDomain(categoricalDomain(c)), newInverseCDF(d)
	case DistWeighted:
		dr.dom, dr.index = newDomain(categoricalDomain(c)), randx.NewCategorical(d.Weights).Index
	case DistNormal, DistLogNormal:
		// x is a standard normal variate; the value is mean + sd·x, or its
		// exp for a log-normal (randx.LogNormal).
		dr.draw = (*rand.Rand).NormFloat64
		mean, sd, exp := d.Mean, d.Stddev, d.Kind == DistLogNormal
		if exp {
			mean, sd = d.Mu, d.Sigma
		}
		dr.value = func(x float64) float64 {
			v := mean + sd*x
			if exp {
				v = math.Exp(v)
			}
			return v
		}
	default:
		return fmt.Errorf("scenario: column %q: unknown distribution %q", c.Name, d.Kind)
	}
	return nil
}

// newInverseCDF compiles a zipf/uniform spec into the inverse CDF of an index
// over [0, card): the index a uniform variate maps to. TailMass switches zipf
// to the head-and-tail mixture shape of real operational categoricals.
func newInverseCDF(d *DistSpec) func(u float64) int {
	card := d.Card
	z := d.Z
	if d.Kind == DistUniform {
		z = 0
	}
	if d.Kind == DistZipf && d.TailMass > 0 {
		head := card / 6
		if head < 2 {
			head = 2
		}
		if head > 8 {
			head = 8
		}
		if head < card {
			weights := make([]float64, card)
			headZ := randx.NewZipf(z, head)
			for i := 0; i < head; i++ {
				weights[i] = (1 - d.TailMass) * headZ.Prob(i)
			}
			tailZ := randx.NewZipf(1.5, card-head)
			for i := head; i < card; i++ {
				weights[i] = d.TailMass * tailZ.Prob(i-head)
			}
			return randx.NewCategorical(weights).Index
		}
	}
	return randx.NewZipf(z, card).Index
}

// categoricalDomain materialises a categorical column's value domain: the
// weighted spec's literal values, or "<col>_<i>" / i for zipf and uniform.
func categoricalDomain(c *ColumnSpec) []engine.Value {
	if c.Dist.Kind == DistWeighted {
		out := make([]engine.Value, len(c.Dist.Values))
		for i, v := range c.Dist.Values {
			out[i], _ = coerce(v, c.Type) // validated earlier
		}
		return out
	}
	out := make([]engine.Value, c.Dist.Card)
	for i := range out {
		if c.Type == TypeInt {
			out[i] = engine.IntVal(int64(i))
		} else {
			out[i] = engine.StringVal(fmt.Sprintf("%s_%03d", c.Name, i))
		}
	}
	return out
}

// newFDDraw compiles a functional-dependency group: the determinant draws
// from its own distribution and every dependent column's value is a fixed
// seeded mapping of the determinant's value index (softened by Noise).
func newFDDraw(g *CorrelatedSpec, byName map[string]*ColumnSpec, gd *groupDrawer, setupRng *rand.Rand) func(*rand.Rand) {
	indexDraw := func(c *ColumnSpec) func(*rand.Rand) int {
		var index func(float64) int
		if c.Dist.Kind == DistWeighted {
			index = randx.NewCategorical(c.Dist.Weights).Index
		} else {
			index = newInverseCDF(&c.Dist)
		}
		return func(rng *rand.Rand) int { return index(rng.Float64()) }
	}
	det := byName[g.Determinant]
	detCard := det.Dist.cardinality()
	detIdx := indexDraw(det)

	type dep struct {
		slot    int
		mapping []int // determinant index -> dependent index
		indep   func(*rand.Rand) int
	}
	var detSlot int
	var deps []dep
	for slot, cn := range g.Columns {
		if cn == g.Determinant {
			detSlot = slot
			continue
		}
		c := byName[cn]
		dp := dep{slot: slot, mapping: make([]int, detCard), indep: indexDraw(c)}
		// The dependency mapping is fixed up front from the setup stream:
		// dependent values are assigned round-robin over a shuffled domain so
		// every dependent value is reachable, then the map never changes —
		// that is what makes it a functional dependency.
		perm := setupRng.Perm(c.Dist.cardinality())
		for i := 0; i < detCard; i++ {
			dp.mapping[i] = perm[i%len(perm)]
		}
		deps = append(deps, dp)
	}
	noise := g.Noise
	return func(rng *rand.Rand) {
		i := detIdx(rng)
		gd.current[detSlot] = i
		for _, dp := range deps {
			if noise > 0 && rng.Float64() < noise {
				gd.current[dp.slot] = dp.indep(rng)
				continue
			}
			gd.current[dp.slot] = dp.mapping[i]
		}
	}
}

// newJointDraw compiles an explicit joint distribution: each row draws a
// state and every grouped column takes that state's value — its domain is
// the states' values for it, indexed by state.
func newJointDraw(g *CorrelatedSpec, byName map[string]*ColumnSpec, gd *groupDrawer, members []*drawer) (func(*rand.Rand), error) {
	weights := make([]float64, len(g.States))
	vals := make([][]engine.Value, len(g.Columns))
	for si, st := range g.States {
		weights[si] = st.Weight
		for vi, v := range st.Values {
			cv, err := coerce(v, byName[g.Columns[vi]].Type)
			if err != nil {
				return nil, fmt.Errorf("scenario: joint state %d: %v", si, err)
			}
			vals[vi] = append(vals[vi], cv)
		}
	}
	for vi, d := range members {
		d.dom = newDomain(vals[vi])
	}
	cat := randx.NewCategorical(weights)
	return func(rng *rand.Rand) {
		state := cat.Draw(rng)
		for slot := range gd.current {
			gd.current[slot] = state
		}
	}, nil
}

// colType maps a spec type name to the engine type. Specs are validated
// before generation, so unknown names cannot reach this.
func colType(t string) engine.Type {
	switch t {
	case TypeInt:
		return engine.Int
	case TypeFloat:
		return engine.Float
	default:
		return engine.String
	}
}

// coerce converts a decoded JSON scalar to an engine value of the column's
// type. JSON numbers arrive as float64; int columns require an integral
// value.
func coerce(v any, typ string) (engine.Value, error) {
	switch typ {
	case TypeString:
		s, ok := v.(string)
		if !ok {
			return engine.Value{}, fmt.Errorf("want a string, got %T (%v)", v, v)
		}
		return engine.StringVal(s), nil
	case TypeInt:
		f, ok := v.(float64)
		if !ok {
			if i, isInt := v.(int); isInt {
				return engine.IntVal(int64(i)), nil
			}
			return engine.Value{}, fmt.Errorf("want an integer, got %T (%v)", v, v)
		}
		if f != math.Trunc(f) {
			return engine.Value{}, fmt.Errorf("want an integer, got %g", f)
		}
		return engine.IntVal(int64(f)), nil
	case TypeFloat:
		switch n := v.(type) {
		case float64:
			return engine.FloatVal(n), nil
		case int:
			return engine.FloatVal(float64(n)), nil
		}
		return engine.Value{}, fmt.Errorf("want a number, got %T (%v)", v, v)
	}
	return engine.Value{}, fmt.Errorf("unknown type %q", typ)
}
