package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// Generate materialises the spec into an engine star schema. Tables are
// seeded in topological FK order (referenced tables first), all randomness
// flows from one generator seeded with Spec.Seed, and the same spec+seed
// yields a bit-identical database on every run.
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

	// Inlined parents (dimension FKs): each row draws a parent row and copies
	// the parent's columns, so the parent's columns ride along correlated.
	type inline struct {
		parent *engine.Table
		cols   []*engine.Column // destination columns, aligned with parent's
		codes  []interned       // by the parent column's dictionary code
	}
	var inlines []inline
	// Fact FKs: a physical int column of row ids into the dimension.
	type factFK struct {
		col *engine.Column
		dim *engine.Table
	}
	var factFKs []factFK
	var joins []engine.DimJoin
	for _, fk := range t.FKs {
		parent := built[fk.References]
		if parent == nil {
			return nil, nil, fmt.Errorf("scenario: internal: table %q generated before its reference %q", t.Name, fk.References)
		}
		if t.Fact {
			c := engine.NewColumn(fk.Column, engine.Int)
			factFKs = append(factFKs, factFK{col: c, dim: parent})
			joins = append(joins, engine.DimJoin{Table: parent, FK: fk.Column})
			continue
		}
		in := inline{parent: parent}
		for _, pc := range parent.Columns() {
			in.cols = append(in.cols, engine.NewColumn(pc.Name, pc.Type))
			in.codes = append(in.codes, make(interned, max(pc.DistinctApprox(), 0)))
		}
		inlines = append(inlines, in)
	}

	for row := 0; row < t.Rows; row++ {
		// Correlated groups first (declaration order), then every column in
		// declared order — grouped columns take their resolved value,
		// independent columns draw inline. One rng, fixed order: the stream
		// is reproducible.
		for _, g := range groups {
			g.drawRow(rng)
		}
		for _, c := range cols {
			c.appendRow(rng)
		}
		for _, in := range inlines {
			pr := rng.Intn(in.parent.NumRows())
			for i, pc := range in.parent.Columns() {
				switch pc.Type {
				case engine.Int:
					in.cols[i].AppendInt(pc.Int(pr))
				case engine.Float:
					in.cols[i].AppendFloat(pc.Float(pr))
				default:
					code := pc.Code(pr)
					in.codes[i].append(in.cols[i], int(code), pc.DictValue(code))
				}
			}
		}
		for _, f := range factFKs {
			f.col.AppendInt(int64(rng.Intn(f.dim.NumRows())))
		}
	}

	var all []*engine.Column
	for _, c := range cols {
		all = append(all, c.col)
	}
	for _, in := range inlines {
		all = append(all, in.cols...)
	}
	for _, f := range factFKs {
		all = append(all, f.col)
	}
	// NewTable adopts the row count from the pre-filled columns.
	return engine.NewTable(t.Name, all...), joins, nil
}

// interned appends strings that are known by an index — a position in a
// column's domain, a parent column's dictionary code — without hashing one
// twice: the first appearance of index i is appended as a string, which gives
// it the next dictionary code as a boxed append would, and kept here as that
// code plus one; every later one is appended by code.
type interned []int32

func (n interned) append(col *engine.Column, i int, s string) {
	if n[i] == 0 {
		col.AppendString(s)
		n[i] = col.Code(col.Len()-1) + 1
		return
	}
	col.AppendCode(n[i] - 1)
}

// domain is a categorical column's values, appended by index and unboxed.
type domain struct {
	vals  []engine.Value
	codes interned
}

func newDomain(vals []engine.Value) *domain {
	return &domain{vals: vals, codes: make(interned, len(vals))}
}

func (d *domain) append(col *engine.Column, i int) {
	switch v := &d.vals[i]; v.T {
	case engine.Int:
		col.AppendInt(v.I)
	case engine.Float:
		col.AppendFloat(v.F)
	default:
		d.codes.append(col, i, v.S)
	}
}

// drawer generates one column's values: a categorical column appends the
// value at an index into its domain — drawn by index, or resolved for the row
// by its correlated group — and any other column draws and appends in draw.
type drawer struct {
	col   *engine.Column
	dom   *domain
	index func(rng *rand.Rand) int // independent categorical columns
	draw  func(rng *rand.Rand)     // independent numeric columns
	group *groupDrawer             // non-nil for grouped columns
	slot  int                      // index into group.current
}

func (d *drawer) appendRow(rng *rand.Rand) {
	switch {
	case d.group != nil:
		d.dom.append(d.col, d.group.current[d.slot])
	case d.dom != nil:
		d.dom.append(d.col, d.index(rng))
	default:
		d.draw(rng)
	}
}

// groupDrawer resolves one correlated group per row into current: per column
// of the group, in its order, the row's index into that column's domain.
type groupDrawer struct {
	current []int
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
		for i := 0; i < p.Count; i++ {
			specs = append(specs, ColumnSpec{
				Name: fmt.Sprintf("%s_attr%02d", t.Name, i),
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
		gd := &groupDrawer{current: make([]int, len(g.Columns))}
		members := make([]*drawer, len(g.Columns))
		for slot, cn := range g.Columns {
			d := drawers[index[cn]]
			d.group = gd
			d.slot = slot
			members[slot] = d
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
	d, col := &c.Dist, dr.col
	switch d.Kind {
	case DistZipf, DistUniform:
		dr.dom, dr.index = newDomain(categoricalDomain(c)), newIndexDraw(d)
	case DistWeighted:
		dr.dom, dr.index = newDomain(categoricalDomain(c)), randx.NewCategorical(d.Weights).Draw
	case DistNormal:
		mean, sd := d.Mean, d.Stddev
		if c.Type == TypeInt {
			dr.draw = func(rng *rand.Rand) { col.AppendInt(int64(math.Round(mean + sd*rng.NormFloat64()))) }
		} else {
			dr.draw = func(rng *rand.Rand) { col.AppendFloat(mean + sd*rng.NormFloat64()) }
		}
	case DistLogNormal:
		mu, sigma := d.Mu, d.Sigma
		if c.Type == TypeInt {
			dr.draw = func(rng *rand.Rand) { col.AppendInt(int64(math.Round(randx.LogNormal(rng, mu, sigma)))) }
		} else {
			dr.draw = func(rng *rand.Rand) { col.AppendFloat(randx.LogNormal(rng, mu, sigma)) }
		}
	default:
		return fmt.Errorf("scenario: column %q: unknown distribution %q", c.Name, d.Kind)
	}
	return nil
}

// newIndexDraw compiles a zipf/uniform spec into an index sampler over
// [0, card). TailMass switches zipf to the head-and-tail mixture shape of
// real operational categoricals.
func newIndexDraw(d *DistSpec) func(*rand.Rand) int {
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
			cat := randx.NewCategorical(weights)
			return cat.Draw
		}
	}
	zipf := randx.NewZipf(z, card)
	return zipf.Draw
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
		if c.Dist.Kind == DistWeighted {
			return randx.NewCategorical(c.Dist.Weights).Draw
		}
		return newIndexDraw(&c.Dist)
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
