package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"dynsample/internal/binio"
	"dynsample/internal/engine"
)

// Persistence for a pre-processed sample family — small group sampling's, or
// a baseline's with nothing in S. The paper's pre-processing phase stores
// sample tables and the metadata table "in the database" (§3.1) so the
// runtime phase can use them across sessions; SaveSmallGroup and
// LoadSmallGroup provide the same durability for this implementation. A
// loaded Prepared answers queries without access to the base data.

const storeMagic = "DSSG"

// storeVersion 4 added the distinct-value cutoff τ to the runtime
// configuration block: online maintenance watches the columns outside S
// within the τ the family was built with. Version 3 had dropped version 2's
// confidence level (a request states its own). It is the only version read:
// nothing writes another.
const storeVersion = 4

// Caps on the lengths and counts read back (binio refuses one over its cap):
// a truncated or corrupted header must produce a descriptive error, not a
// multi-gigabyte allocation.
const (
	maxStoreColumns = 1 << 16 // columns in the metadata table
	maxStorePairs   = 1 << 20 // column-pair metadata entries
	maxStoreSetSize = 1 << 26 // values per common/exact/rare set
	maxStoreTables  = 1 << 20 // MaxTablesPerQuery upper bound
	maxStoreString  = 1 << 24 // bytes per column name or set entry
)

// SaveSmallGroup serialises a sample family (as returned by any strategy's
// Preprocess or a previous LoadSmallGroup): the header and metadata in
// binio's field layout, then the tables in the engine table format.
func SaveSmallGroup(w io.Writer, p Prepared) error {
	sgp, ok := p.(*smallGroupPrepared)
	if !ok {
		return fmt.Errorf("core: %T is not a sample family", p)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(storeMagic)
	binio.PutU32(bw, storeVersion)

	// Runtime configuration.
	binio.PutU32(bw, uint32(sgp.cfg.MaxTablesPerQuery))
	binio.PutU32(bw, uint32(sgp.cfg.DistinctLimit))
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
	if err := bw.Flush(); err != nil {
		return err
	}

	// Tables (small group tables in index order, then the overall sample).
	// Only flat join-synopsis storage is serialisable; renormalized sample
	// sets must be rebuilt from the base data.
	for _, t := range sgp.tables {
		tbl, ok := t.src.(*engine.Table)
		if !ok {
			return fmt.Errorf("core: cannot save renormalized sample storage")
		}
		if err := engine.WriteBinary(tbl, w); err != nil {
			return err
		}
	}
	otbl, ok := sgp.overall.src.(*engine.Table)
	if !ok {
		return fmt.Errorf("core: cannot save renormalized sample storage")
	}
	return engine.WriteBinary(otbl, w)
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
	case version == 2:
		return nil, fmt.Errorf("core: store version 2 carries a confidence level this build no longer reads; it reads version %d only", storeVersion)
	case version == 3:
		return nil, fmt.Errorf("core: store version 3 does not record the distinct-value cutoff τ; this build reads version %d only", storeVersion)
	case version != storeVersion:
		return nil, fmt.Errorf("core: unsupported store version %d", version)
	}

	cfg := SmallGroupConfig{MaxTablesPerQuery: in.Count(maxStoreTables, "max tables per query"), DistinctLimit: int(in.U32())}
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
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("core: reading store metadata: %w", err)
	}

	p := &smallGroupPrepared{meta: meta, cfg: cfg, overallScale: overallScale, dataGen: dataGen, pstats: &plannerStats{}}
	for i := 0; i < meta.Width(); i++ {
		t, err := engine.ReadBinary(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading sample table %d: %w", i, err)
		}
		p.tables = append(p.tables, sampleSource{src: t, name: t.Name})
	}
	ot, err := engine.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading overall sample: %w", err)
	}
	p.overall = sampleSource{src: ot, name: ot.Name}
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
