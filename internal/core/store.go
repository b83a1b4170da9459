package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"

	"dynsample/internal/binio"
	"dynsample/internal/congress"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
	"dynsample/internal/weighted"
)

// Persistence for a pre-processed sample family — small group sampling's, or
// a baseline's with nothing in S. The paper's pre-processing phase stores
// sample tables and the metadata table "in the database" (§3.1) so the
// runtime phase can use them across sessions; SaveSmallGroup and
// LoadSmallGroup provide the same durability for this implementation. A
// loaded Prepared answers queries without access to the base data.

const storeMagic = "DSSG"

// storeVersion 8 stores no membership mask with a sample row, where version
// 7 stored one as mask word columns. Version 7 stored every sample table as a
// fact slice, where version 6 stored the overall sample flattened; version 6
// recorded the dimension tables the slices join (dimStamp), where version 5
// stored every table flattened; version 5 recorded the whole configuration
// that built the family (familySpec) where version 4 kept only
// MaxTablesPerQuery and τ. It is the only version read: nothing writes
// another.
const storeVersion = 8

// Caps on the lengths and counts read back (binio refuses one over its cap):
// a truncated or corrupted header must produce a descriptive error, not a
// multi-gigabyte allocation.
const (
	maxStoreColumns = 1 << 16 // columns in the metadata table, dimension tables
	maxStorePairs   = 1 << 20 // column-pair metadata entries
	maxStoreSetSize = 1 << 26 // values per common/exact/rare set
	maxStoreTables  = 1 << 20 // MaxTablesPerQuery upper bound
	maxStoreString  = 1 << 24 // bytes per column name or set entry
)

// SaveSmallGroup serialises a sample family (as returned by any strategy's
// Preprocess or a previous LoadSmallGroup): the header, the metadata and the
// dimension tables the sample tables join in binio's field layout, then the
// tables in the engine table format: each sample's fact table, the small group
// tables' in index order, then the overall sample's.
func SaveSmallGroup(w io.Writer, p Prepared) error {
	sgp, ok := p.(*smallGroupPrepared)
	if !ok {
		return fmt.Errorf("core: %T is not a sample family", p)
	}
	spec, err := sgp.cfg.spec()
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("core: recording the family config: %w", err)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(storeMagic)
	binio.PutU32(bw, storeVersion)
	binio.PutString(bw, string(specJSON))
	binio.PutF64(bw, sgp.overallScale)
	binio.PutU64(bw, sgp.dataGen)

	// Metadata.
	m := sgp.meta
	binio.PutU64(bw, uint64(m.BaseRows))
	binio.PutU32(bw, uint32(len(m.columns)))
	for _, cm := range m.columns {
		binio.PutString(bw, cm.Column)
		binio.PutU32(bw, uint32(cm.Distinct))
		binio.PutU64(bw, uint64(cm.RareRows))
		putValueSet(bw, cm.Common)
		if cm.Exact == nil {
			bw.WriteByte(0)
		} else {
			bw.WriteByte(1)
			putValueSet(bw, cm.Exact)
		}
	}
	binio.PutU32(bw, uint32(len(m.pairs)))
	for _, pm := range m.pairs {
		binio.PutString(bw, pm.Cols[0])
		binio.PutString(bw, pm.Cols[1])
		binio.PutU64(bw, uint64(pm.RareRows))
		keys := make([]string, 0, len(pm.Rare))
		for k := range pm.Rare {
			keys = append(keys, string(k))
		}
		putSortedStrings(bw, keys)
	}
	stamps := sgp.stamps
	if stamps == nil {
		stamps = stampDims(sgp.dims)
	}
	binio.PutU32(bw, uint32(len(stamps)))
	for _, st := range stamps {
		binio.PutString(bw, st.name)
		binio.PutString(bw, st.fk)
		binio.PutU64(bw, uint64(st.rows))
		binio.PutU32(bw, st.sum)
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	for _, t := range sgp.samples() {
		if err := engine.WriteBinary(t.src.Fact, w); err != nil {
			return err
		}
	}
	return nil
}

// dimStamp records one dimension table a family's fact slices join: its
// name, the fact column referencing it, its row count and the Checksum of
// those rows. A loaded family binds only to a dimension its stamp matches.
type dimStamp struct {
	name, fk string
	rows     int
	sum      uint32
}

func stampDims(dims []engine.DimJoin) []dimStamp {
	out := make([]dimStamp, len(dims))
	for d, dj := range dims {
		out[d] = dimStamp{name: dj.Table.Name, fk: dj.FK, rows: dj.Table.NumRows(), sum: dj.Table.Checksum(dj.Table.NumRows())}
	}
	return out
}

// ErrStoreVersion is wrapped by the error LoadSmallGroup returns for a store
// of a version it does not read: one an earlier or later build wrote.
var ErrStoreVersion = errors.New("sample family store version not read")

// oldStores is why LoadSmallGroup refuses each version an earlier build
// wrote.
var oldStores = map[uint32]string{
	2: "carries a confidence level this build no longer reads",
	3: "does not record the distinct-value cutoff τ",
	4: "does not record the configuration that built the family",
	5: "stores its small group tables flattened, not as fact slices",
	6: "stores its overall sample flattened, not as a fact slice",
	7: "stores membership masks with its sample rows",
}

// LoadSmallGroup reads state written by SaveSmallGroup.
func LoadSmallGroup(r io.Reader) (Prepared, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading store header: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("core: bad store magic %q", magic)
	}
	in := binio.NewReader(br)
	switch version := in.U32(); {
	case in.Err() != nil:
		return nil, fmt.Errorf("core: reading store header: %w", in.Err())
	case oldStores[version] != "":
		return nil, fmt.Errorf("core: %w: store version %d %s; this build reads version %d only", ErrStoreVersion, version, oldStores[version], storeVersion)
	case version != storeVersion:
		return nil, fmt.Errorf("core: %w: unsupported store version %d", ErrStoreVersion, version)
	}

	cfg, err := parseSpec([]byte(in.String(maxStoreString)))
	if in.Err() == nil && err != nil {
		in.Fail(err)
	}
	overallScale, dataGen, baseRows := in.F64(), in.U64(), in.U64()
	metas := make([]ColumnMeta, in.Count(maxStoreColumns, "column count"))
	for i := 0; i < len(metas) && in.Err() == nil; i++ {
		cm := &metas[i]
		cm.Column, cm.Distinct, cm.RareRows = in.String(maxStoreString), int(in.U32()), int64(in.U64())
		cm.Common = getValueSet(in)
		if in.U8() == 1 {
			cm.Exact = getValueSet(in)
		}
	}
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("core: reading store metadata: %w", err)
	}
	meta := NewMetadata(int64(baseRows), metas)
	for n := in.Count(maxStorePairs, "pair count"); n > 0 && in.Err() == nil; n-- {
		pm := PairMeta{Cols: [2]string{in.String(maxStoreString), in.String(maxStoreString)}, RareRows: int64(in.U64())}
		keys := in.Strings(maxStoreSetSize, maxStoreString, "rare key count")
		pm.Rare = make(map[engine.GroupKey]struct{}, len(keys))
		for _, k := range keys {
			pm.Rare[engine.GroupKey(k)] = struct{}{}
		}
		meta.AddPair(pm)
	}
	stamps := make([]dimStamp, in.Count(maxStoreColumns, "dimension count"))
	for i := 0; i < len(stamps) && in.Err() == nil; i++ {
		stamps[i] = dimStamp{name: in.String(maxStoreString), fk: in.String(maxStoreString), rows: int(in.U64()), sum: in.U32()}
		if stamps[i].rows < 0 {
			in.Fail(fmt.Errorf("dimension %q has %d rows", stamps[i].name, stamps[i].rows))
		}
	}
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("core: reading store metadata: %w", err)
	}

	p := &smallGroupPrepared{meta: meta, cfg: cfg, overallScale: overallScale, dataGen: dataGen, pstats: &plannerStats{}}
	if len(stamps) > 0 {
		p.stamps = stamps // the slices join their dimensions once a System binds them
	}
	// The sample tables: the small group tables in index order, then the
	// overall sample.
	for i := 0; i <= meta.Width(); i++ {
		t, err := engine.ReadBinary(br)
		var slice *engine.Database
		if err == nil {
			slice, err = engine.NewDatabase(t.Name, t)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading sample table %d of %d: %w", i+1, meta.Width()+1, err)
		}
		p.tables = append(p.tables, sampleSource{src: slice, name: t.Name})
	}
	p.tables, p.overall = p.tables[:meta.Width()], p.tables[meta.Width()]
	return p, nil
}

func putValueSet(w *bufio.Writer, set map[engine.Value]struct{}) {
	keys := make([]string, 0, len(set))
	for v := range set {
		keys = append(keys, string(engine.EncodeKey([]engine.Value{v})))
	}
	putSortedStrings(w, keys)
}

// putSortedStrings writes a counted set of strings in sorted order. The sets
// live in maps, and map iteration order must not reach the file: one sample
// family always saves to the same bytes.
func putSortedStrings(w *bufio.Writer, keys []string) {
	sort.Strings(keys)
	binio.PutU32(w, uint32(len(keys)))
	for _, k := range keys {
		binio.PutString(w, k)
	}
}

// getValueSet reads a set putValueSet wrote: each entry one encoded value.
func getValueSet(in *binio.Reader) map[engine.Value]struct{} {
	keys := in.Strings(maxStoreSetSize, maxStoreString, "value set size")
	set := make(map[engine.Value]struct{}, len(keys))
	for _, k := range keys {
		vals, err := engine.DecodeKeyChecked(engine.GroupKey(k))
		if err == nil && len(vals) != 1 {
			err = fmt.Errorf("%d values", len(vals))
		}
		if err != nil {
			in.Fail(fmt.Errorf("corrupt value entry: %w", err))
			return nil
		}
		set[vals[0]] = struct{}{}
	}
	return set
}

// familySpec is the record of the config that built a family, which the
// store keeps with it as JSON: every SmallGroupConfig field a rebuild
// reads, after defaults (Workers and ScanRowsPerSecond are the process's,
// not the family's), and the overall sample's selector as the one field its
// kind names. From the record a loaded family knows its config and its
// name, and a restore can tell whether the configured strategy would build
// it.
type familySpec struct {
	SmallGroupConfig
	Outlier  *outlier.Config  `json:",omitempty"`
	Congress *congress.Config `json:",omitempty"`
	Weighted *weighted.Config `json:",omitempty"`
	// name is the family kind the config builds: small group sampling, or,
	// with nothing in S, the baseline its selector makes.
	name string
}

// spec is c's record. A selector it cannot record is refused by its type.
func (c SmallGroupConfig) spec() (familySpec, error) {
	s := familySpec{SmallGroupConfig: c, name: "uniform"}
	switch o := c.Overall.(type) {
	case nil:
	case outlier.Config:
		s.Outlier, s.name = &o, "outlier"
	case congress.Config:
		s.Congress, s.name = &o, "congress-basic"
		if o.Variant == congress.Full {
			s.name = "congress-full"
		}
	case weighted.Config:
		s.Weighted, s.name = &o, "weighted"
	default:
		return familySpec{}, fmt.Errorf("core: cannot record overall sample selector %T", o)
	}
	if c.Columns == nil || len(c.Columns) > 0 {
		s.name = "smallgroup"
	}
	return s, nil
}

// Name implements Strategy: "smallgroup", or, with nothing in S, the
// baseline the overall sample selector makes — "uniform" (the reservoir),
// "outlier", "congress-basic", "congress-full" or "weighted".
func (s *SmallGroup) Name() string {
	spec, _ := s.cfg.spec() // a selector the record cannot hold leaves "smallgroup"
	return cmp.Or(spec.name, "smallgroup")
}

// parseSpec reads a record strictly, refusing any field it does not know,
// into the configuration it describes.
func parseSpec(b []byte) (SmallGroupConfig, error) {
	var s familySpec
	d := json.NewDecoder(bytes.NewReader(b))
	d.DisallowUnknownFields()
	if err := d.Decode(&s); err != nil {
		return s.SmallGroupConfig, fmt.Errorf("family config: %w", err)
	}
	c := s.SmallGroupConfig
	switch {
	case s.MaxTablesPerQuery > maxStoreTables:
		return c, fmt.Errorf("unreasonable max tables per query %d", s.MaxTablesPerQuery)
	case s.Outlier != nil:
		c.Overall = *s.Outlier
	case s.Congress != nil:
		c.Overall = *s.Congress
	case s.Weighted != nil:
		c.Overall = *s.Weighted
	}
	return c, c.validate()
}

// Configure gives p the settings of this strategy's config that belong to
// the process, not to the family, as a family it pre-processes has them:
// ScanRowsPerSecond, and Workers when positive. A family loaded from disk
// records neither (familySpec).
func (s *SmallGroup) Configure(p Prepared) {
	sgp := p.(*smallGroupPrepared)
	sgp.cfg.ScanRowsPerSecond = s.cfg.ScanRowsPerSecond
	sgp.SetWorkers(s.cfg.Workers)
}

// CheckFamily reports whether p was built from this strategy's
// configuration, after defaults: nil when it was, else an error naming the
// first recorded field that differs.
func (s *SmallGroup) CheckFamily(p Prepared) error {
	want, err := s.cfg.withDefaults().spec()
	got, gerr := p.(*smallGroupPrepared).cfg.spec()
	if err = cmp.Or(err, gerr); err != nil {
		return err
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for _, f := range reflect.VisibleFields(wv.Type()) {
		if f.IsExported() && !f.Anonymous && f.Tag.Get("json") != "-" &&
			!reflect.DeepEqual(wv.FieldByIndex(f.Index).Interface(), gv.FieldByIndex(f.Index).Interface()) {
			return fmt.Errorf("the family was built with another %s than the configured one", f.Name)
		}
	}
	return nil
}
