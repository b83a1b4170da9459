// Package scenario is the config-driven workload laboratory: declarative
// schema specs (tables, typed columns, per-column value distributions, FK
// references seeded in topological order, and correlated column groups) are
// compiled into engine star schemas, and case directories pair a spec with a
// query-workload recipe, resource budgets, and pass/fail gates that a runner
// executes end-to-end against a real server instance.
//
// The spec layer exists because the paper's evidence base — and this
// reproduction's until now — was two hand-coded generators (SALES, TPC-H).
// A declarative spec makes new schemas a JSON file instead of a Go change,
// and, crucially, makes *correlated* columns expressible: the §4.4 error
// model the planner runs online assumes grouping columns are independent,
// and the only way to measure what that assumption costs is to generate data
// where it fails on purpose. See ARCHITECTURE.md §11 and
// scenarios/README.md.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"dynsample/internal/engine"
)

// Spec is a declarative database schema: one fact table plus any number of
// dimension tables, each with typed columns drawn from configured
// distributions. Tables may reference each other with FKs; referenced tables
// are seeded first (topological order). The fact table's FKs become the star
// schema's dimension joins; a dimension's FKs inline the referenced table's
// columns into the dimension (snowflake flattening), which is also a natural
// source of cross-column correlation.
type Spec struct {
	// Name names the generated database (engine.Database.Name).
	Name string `json:"name"`
	// Seed drives every random draw. The same spec and seed produce an
	// identical database on every run.
	Seed int64 `json:"seed,omitempty"`
	// Tables lists the schema's tables in any order; generation order is
	// derived from the FK graph.
	Tables []TableSpec `json:"tables"`
}

// TableSpec is one table of the schema.
type TableSpec struct {
	// Name names the table. Unique across the spec.
	Name string `json:"name"`
	// Rows is the number of rows to generate; must be >= 1.
	Rows int `json:"rows"`
	// Fact marks the fact table. Exactly one table must set it.
	Fact bool `json:"fact,omitempty"`
	// Columns are the table's generated columns. Column names must be unique
	// across the whole spec (the engine's star-schema view requires it).
	Columns []ColumnSpec `json:"columns"`
	// FKs reference other tables. On the fact table each FK becomes a
	// dimension join (the FK column holds row ids into the dimension). On a
	// dimension table each FK inlines the referenced table: every row draws a
	// parent row uniformly and copies the parent's columns, so the referenced
	// table's columns appear — correlated — in this table.
	FKs []FKSpec `json:"fks,omitempty"`
	// Correlated declares groups of this table's columns that are generated
	// jointly instead of independently. Each column may appear in at most one
	// group.
	Correlated []CorrelatedSpec `json:"correlated,omitempty"`
	// Padding appends machine-generated filler categoricals, for wide
	// operational schemas (the paper's SALES database had 245 columns) where
	// writing every column out by hand would drown the spec.
	Padding *PaddingSpec `json:"padding,omitempty"`
}

// FKSpec is one foreign-key reference.
type FKSpec struct {
	// Column names the generated FK column (fact tables only; inlined
	// dimension FKs do not materialise a column). Must not collide with any
	// declared column.
	Column string `json:"column,omitempty"`
	// References names the referenced table.
	References string `json:"references"`
}

// Column value types.
const (
	TypeString = "string"
	TypeInt    = "int"
	TypeFloat  = "float"
)

// ColumnSpec is one generated column.
type ColumnSpec struct {
	Name string `json:"name"`
	// Type is "string", "int" or "float".
	Type string `json:"type"`
	// Dist is the column's marginal distribution. Columns captured by a
	// correlated group still declare a Dist: it defines the column's value
	// domain, and for "fd" groups the determinant's Dist drives the draw.
	Dist DistSpec `json:"dist"`
}

// Distribution kinds.
const (
	DistZipf      = "zipf"
	DistUniform   = "uniform"
	DistWeighted  = "weighted"
	DistNormal    = "normal"
	DistLogNormal = "lognormal"
)

// DistSpec configures a column distribution. Which fields apply depends on
// Kind:
//
//   - "zipf": Card distinct values with P(i) ∝ (i+1)^-Z. Optional TailMass
//     switches to the head-and-tail mixture real operational categoricals
//     have (a Zipf head carrying 1-TailMass of the mass, a thin geometric
//     tail over the rest). String and int columns.
//   - "uniform": Card distinct values, equal mass. String and int columns.
//   - "weighted": explicit Values with Weights (unnormalised). Any type.
//   - "normal": mean Mean, standard deviation Stddev. Int and float columns
//     (ints round).
//   - "lognormal": exp(Normal(Mu, Sigma)). Int and float columns.
type DistSpec struct {
	Kind string `json:"kind"`
	// Card is the number of distinct values for zipf/uniform. Values are
	// named "<column>_<i>" for string columns and are the integer i for int
	// columns, i in [0, Card).
	Card int `json:"card,omitempty"`
	// Z is the zipf skew; 0 is uniform.
	Z float64 `json:"z,omitempty"`
	// TailMass, when > 0, spreads that probability mass thinly across the
	// non-head values (zipf only).
	TailMass float64 `json:"tail_mass,omitempty"`
	// Values/Weights define a weighted distribution. Values are JSON
	// scalars matching the column type.
	Values  []any     `json:"values,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	// Mean/Stddev parameterise normal.
	Mean   float64 `json:"mean,omitempty"`
	Stddev float64 `json:"stddev,omitempty"`
	// Mu/Sigma parameterise lognormal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// Correlated group kinds.
const (
	CorrFD    = "fd"
	CorrJoint = "joint"
)

// CorrelatedSpec declares columns generated jointly. Two kinds:
//
//   - "fd" (functional dependency): Determinant is drawn from its own Dist;
//     every other column's value is a fixed function of the determinant's
//     value (a deterministic seeded mapping from determinant domain to
//     dependent domain), e.g. city → region. Noise in [0, 1) makes the
//     dependency soft: with that probability a dependent column draws
//     independently instead.
//   - "joint": rows draw one of States (weighted); each state assigns every
//     column in the group a literal value. This expresses arbitrary joint
//     distributions, including ones whose marginals look independent while
//     the joint mass is concentrated — exactly the shape that breaks the
//     §4.4 independence assumption.
type CorrelatedSpec struct {
	Columns []string `json:"columns"`
	Kind    string   `json:"kind"`
	// Determinant is the driving column for "fd".
	Determinant string `json:"determinant,omitempty"`
	// Noise is the probability an "fd" dependent value breaks the dependency.
	Noise float64 `json:"noise,omitempty"`
	// States is the joint distribution for "joint": each state's Values align
	// with Columns.
	States []JointState `json:"states,omitempty"`
}

// JointState is one cell of a joint distribution.
type JointState struct {
	Weight float64 `json:"weight"`
	Values []any   `json:"values"`
}

// PaddingSpec appends Count generated string categoricals named
// "<table>_attr<NN>" with cardinalities cycled from Cards (a default palette
// when empty), drawn zipf(Z) with TailMass tail.
type PaddingSpec struct {
	Count    int     `json:"count"`
	Cards    []int   `json:"cards,omitempty"`
	Z        float64 `json:"z,omitempty"`
	TailMass float64 `json:"tail_mass,omitempty"`
}

// defaultPaddingCards is the cardinality palette padding cycles through,
// mirroring the hand-built SALES generator's mix.
var defaultPaddingCards = []int{2, 3, 5, 8, 12, 20, 35, 50, 80, 120, 300, 800, 2000}

// ParseSpec decodes and validates a spec from JSON. Unknown fields are
// rejected so a typo fails fast instead of silently generating the wrong
// database.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: bad spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the whole spec and returns the first problem found. It is
// called by ParseSpec; call it directly on specs built in code.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if len(s.Tables) == 0 {
		return fmt.Errorf("scenario: spec %q has no tables", s.Name)
	}
	tables := make(map[string]*TableSpec, len(s.Tables))
	factCount := 0
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.Name == "" {
			return fmt.Errorf("scenario: table %d has no name", i)
		}
		if _, dup := tables[t.Name]; dup {
			return fmt.Errorf("scenario: duplicate table %q", t.Name)
		}
		if err := engine.CheckColumnName(t.Name); err != nil { // a table's name starts its padding columns'
			return fmt.Errorf("scenario: table %d: %w", i, err)
		}
		tables[t.Name] = t
		if t.Fact {
			factCount++
		}
		if t.Rows < 1 {
			return fmt.Errorf("scenario: table %q: rows %d must be >= 1", t.Name, t.Rows)
		}
	}
	if factCount != 1 {
		return fmt.Errorf("scenario: spec %q needs exactly one fact table, has %d", s.Name, factCount)
	}

	// Column names must be unique across the spec: the engine's joined view
	// exposes every column by bare name.
	seenCols := map[string]string{}
	for i := range s.Tables {
		t := &s.Tables[i]
		if len(t.Columns) == 0 && t.Padding == nil {
			return fmt.Errorf("scenario: table %q has no columns", t.Name)
		}
		for j := range t.Columns {
			c := &t.Columns[j]
			if c.Name == "" {
				return fmt.Errorf("scenario: table %q column %d has no name", t.Name, j)
			}
			if err := engine.CheckColumnName(c.Name); err != nil {
				return fmt.Errorf("scenario: table %q: %w", t.Name, err)
			}
			if prev, dup := seenCols[c.Name]; dup {
				return fmt.Errorf("scenario: column %q declared in both %q and %q (names must be unique across the spec)", c.Name, prev, t.Name)
			}
			seenCols[c.Name] = t.Name
			if err := c.validate(t.Name); err != nil {
				return err
			}
		}
		if p := t.Padding; p != nil {
			if p.Count < 0 {
				return fmt.Errorf("scenario: table %q: negative padding count %d", t.Name, p.Count)
			}
			for _, card := range p.Cards {
				if card < 1 {
					return fmt.Errorf("scenario: table %q: padding cardinality %d must be >= 1", t.Name, card)
				}
			}
			if p.Z < 0 || p.TailMass < 0 || p.TailMass >= 1 {
				return fmt.Errorf("scenario: table %q: bad padding z/tail_mass", t.Name)
			}
		}
		if err := t.validateCorrelated(); err != nil {
			return err
		}
	}

	// FK references resolve, fact FK columns don't collide, and the graph is
	// acyclic (generation needs a topological order).
	for i := range s.Tables {
		t := &s.Tables[i]
		for _, fk := range t.FKs {
			ref, ok := tables[fk.References]
			if !ok {
				return fmt.Errorf("scenario: table %q references unknown table %q", t.Name, fk.References)
			}
			if fk.References == t.Name {
				return fmt.Errorf("scenario: table %q references itself", t.Name)
			}
			if ref.Fact {
				return fmt.Errorf("scenario: table %q references the fact table %q", t.Name, fk.References)
			}
			if t.Fact {
				if fk.Column == "" {
					return fmt.Errorf("scenario: fact table %q FK to %q needs a column name", t.Name, fk.References)
				}
				if err := engine.CheckColumnName(fk.Column); err != nil {
					return fmt.Errorf("scenario: table %q: %w", t.Name, err)
				}
				if prev, dup := seenCols[fk.Column]; dup {
					return fmt.Errorf("scenario: FK column %q collides with column of %q", fk.Column, prev)
				}
				seenCols[fk.Column] = t.Name
			} else if fk.Column != "" {
				return fmt.Errorf("scenario: table %q: only fact-table FKs name a column (dimension FKs inline the referenced table)", t.Name)
			}
		}
	}
	if _, err := s.topoOrder(); err != nil {
		return err
	}

	// A table inlined into a dimension must not also be a direct dimension of
	// the fact table: its columns would appear twice in the view.
	var fact *TableSpec
	for i := range s.Tables {
		if s.Tables[i].Fact {
			fact = &s.Tables[i]
		}
	}
	factRefs := map[string]bool{}
	for _, fk := range fact.FKs {
		if factRefs[fk.References] {
			return fmt.Errorf("scenario: fact table references %q twice", fk.References)
		}
		factRefs[fk.References] = true
	}
	referenced := map[string]bool{}
	for i := range s.Tables {
		t := &s.Tables[i]
		for _, fk := range t.FKs {
			if !t.Fact && factRefs[fk.References] {
				return fmt.Errorf("scenario: table %q is both a fact dimension and inlined into %q; its columns would appear twice", fk.References, t.Name)
			}
			referenced[fk.References] = true
		}
	}
	// Every non-fact table must be referenced by something: with an acyclic
	// graph that guarantees its columns reach the fact view (directly as a
	// dimension or transitively inlined) instead of silently vanishing.
	for i := range s.Tables {
		t := &s.Tables[i]
		if !t.Fact && !referenced[t.Name] {
			return fmt.Errorf("scenario: table %q is referenced by nothing; its columns would never reach the database", t.Name)
		}
	}
	return nil
}

// validate checks one column spec.
func (c *ColumnSpec) validate(table string) error {
	where := fmt.Sprintf("scenario: table %q column %q", table, c.Name)
	switch c.Type {
	case TypeString, TypeInt, TypeFloat:
	default:
		return fmt.Errorf("%s: unknown type %q (want string, int or float)", where, c.Type)
	}
	d := &c.Dist
	switch d.Kind {
	case DistZipf:
		if c.Type == TypeFloat {
			return fmt.Errorf("%s: zipf needs a string or int column", where)
		}
		if d.Card < 1 {
			return fmt.Errorf("%s: zipf needs card >= 1, got %d", where, d.Card)
		}
		if d.Z < 0 {
			return fmt.Errorf("%s: zipf z %g must be >= 0", where, d.Z)
		}
		if d.TailMass < 0 || d.TailMass >= 1 {
			return fmt.Errorf("%s: tail_mass %g must be in [0, 1)", where, d.TailMass)
		}
	case DistUniform:
		if c.Type == TypeFloat {
			return fmt.Errorf("%s: uniform needs a string or int column", where)
		}
		if d.Card < 1 {
			return fmt.Errorf("%s: uniform needs card >= 1, got %d", where, d.Card)
		}
	case DistWeighted:
		if len(d.Values) == 0 {
			return fmt.Errorf("%s: weighted needs values", where)
		}
		if len(d.Weights) != len(d.Values) {
			return fmt.Errorf("%s: weighted has %d values but %d weights", where, len(d.Values), len(d.Weights))
		}
		for _, w := range d.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("%s: bad weight %g", where, w)
			}
		}
		for i, v := range d.Values {
			if _, err := coerce(v, c.Type); err != nil {
				return fmt.Errorf("%s: value %d: %v", where, i, err)
			}
		}
	case DistNormal:
		if c.Type == TypeString {
			return fmt.Errorf("%s: normal needs an int or float column", where)
		}
		if d.Stddev < 0 {
			return fmt.Errorf("%s: normal stddev %g must be >= 0", where, d.Stddev)
		}
	case DistLogNormal:
		if c.Type == TypeString {
			return fmt.Errorf("%s: lognormal needs an int or float column", where)
		}
		if d.Sigma < 0 {
			return fmt.Errorf("%s: lognormal sigma %g must be >= 0", where, d.Sigma)
		}
	case "":
		return fmt.Errorf("%s: missing distribution kind", where)
	default:
		return fmt.Errorf("%s: unknown distribution %q (want zipf, uniform, weighted, normal or lognormal)", where, d.Kind)
	}
	return nil
}

// cardinality returns the size of a categorical distribution's value domain,
// or 0 for continuous distributions.
func (d *DistSpec) cardinality() int {
	switch d.Kind {
	case DistZipf, DistUniform:
		return d.Card
	case DistWeighted:
		return len(d.Values)
	}
	return 0
}

// validateCorrelated checks the table's correlated groups against its
// declared columns.
func (t *TableSpec) validateCorrelated() error {
	cols := make(map[string]*ColumnSpec, len(t.Columns))
	for i := range t.Columns {
		cols[t.Columns[i].Name] = &t.Columns[i]
	}
	grouped := map[string]bool{}
	for gi := range t.Correlated {
		g := &t.Correlated[gi]
		where := fmt.Sprintf("scenario: table %q correlated group %d", t.Name, gi)
		if len(g.Columns) < 2 {
			return fmt.Errorf("%s: needs at least 2 columns", where)
		}
		for _, cn := range g.Columns {
			if _, ok := cols[cn]; !ok {
				return fmt.Errorf("%s: references missing column %q", where, cn)
			}
			if grouped[cn] {
				return fmt.Errorf("%s: column %q already belongs to another correlated group", where, cn)
			}
			grouped[cn] = true
		}
		switch g.Kind {
		case CorrFD:
			if g.Determinant == "" {
				return fmt.Errorf("%s: fd group needs a determinant", where)
			}
			found := false
			for _, cn := range g.Columns {
				if cn == g.Determinant {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: determinant %q is not in the group", where, g.Determinant)
			}
			if g.Noise < 0 || g.Noise >= 1 {
				return fmt.Errorf("%s: noise %g must be in [0, 1)", where, g.Noise)
			}
			for _, cn := range g.Columns {
				if cols[cn].Dist.cardinality() < 1 {
					return fmt.Errorf("%s: column %q needs a categorical distribution (zipf, uniform or weighted) to participate in an fd group", where, cn)
				}
			}
			if len(g.States) > 0 {
				return fmt.Errorf("%s: fd group does not take states", where)
			}
		case CorrJoint:
			if len(g.States) == 0 {
				return fmt.Errorf("%s: joint group needs states", where)
			}
			if g.Determinant != "" || g.Noise != 0 {
				return fmt.Errorf("%s: joint group does not take determinant/noise", where)
			}
			total := 0.0
			for si, st := range g.States {
				if st.Weight <= 0 || math.IsNaN(st.Weight) || math.IsInf(st.Weight, 0) {
					return fmt.Errorf("%s: state %d weight %g must be positive", where, si, st.Weight)
				}
				total += st.Weight
				if len(st.Values) != len(g.Columns) {
					return fmt.Errorf("%s: state %d has %d values for %d columns", where, si, len(st.Values), len(g.Columns))
				}
				for vi, v := range st.Values {
					if _, err := coerce(v, cols[g.Columns[vi]].Type); err != nil {
						return fmt.Errorf("%s: state %d column %q: %v", where, si, g.Columns[vi], err)
					}
				}
			}
			if total <= 0 {
				return fmt.Errorf("%s: zero total state weight", where)
			}
		case "":
			return fmt.Errorf("%s: missing kind", where)
		default:
			return fmt.Errorf("%s: unknown kind %q (want fd or joint)", where, g.Kind)
		}
	}
	return nil
}

// topoOrder returns the spec's tables in generation order: every table after
// the tables it references. A cycle in the FK graph is an error.
func (s *Spec) topoOrder() ([]*TableSpec, error) {
	byName := make(map[string]*TableSpec, len(s.Tables))
	indeg := make(map[string]int, len(s.Tables))
	dependents := make(map[string][]string, len(s.Tables))
	for i := range s.Tables {
		t := &s.Tables[i]
		byName[t.Name] = t
		indeg[t.Name] = 0
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		for _, fk := range t.FKs {
			if _, ok := byName[fk.References]; !ok {
				return nil, fmt.Errorf("scenario: table %q references unknown table %q", t.Name, fk.References)
			}
			indeg[t.Name]++
			dependents[fk.References] = append(dependents[fk.References], t.Name)
		}
	}
	// Deterministic Kahn: ready tables processed in name order.
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	var order []*TableSpec
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		order = append(order, byName[name])
		for _, dep := range dependents[name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				sort.Strings(ready)
			}
		}
	}
	if len(order) != len(s.Tables) {
		var stuck []string
		for name, d := range indeg {
			if d > 0 {
				stuck = append(stuck, name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("scenario: FK cycle among tables %s", strings.Join(stuck, ", "))
	}
	return order, nil
}

// factTable returns the spec's fact table. Valid specs have exactly one.
func (s *Spec) factTable() *TableSpec {
	for i := range s.Tables {
		if s.Tables[i].Fact {
			return &s.Tables[i]
		}
	}
	return nil
}

// FactTable returns a pointer to the spec's fact table, or nil if the spec
// does not declare one. Callers may mutate it (e.g. row-count overrides)
// before Generate.
func (s *Spec) FactTable() *TableSpec { return s.factTable() }
