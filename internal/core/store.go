package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

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

// Sanity caps on length prefixes. A truncated or corrupted header must
// produce a descriptive error, not a multi-gigabyte allocation: every count
// read from the stream is bounded before it sizes anything, and map/slice
// capacity hints are additionally clamped to allocHint so even an in-range
// lie costs little before the stream runs dry.
const (
	maxStoreColumns = 1 << 16 // columns in the metadata table
	maxStorePairs   = 1 << 20 // column-pair metadata entries
	maxStoreSetSize = 1 << 26 // values per common/exact/rare set
	maxStoreTables  = 1 << 20 // MaxTablesPerQuery upper bound
	allocHint       = 1 << 16 // pre-allocation clamp for header-declared sizes
)

func capHint(n uint32) int {
	if n > allocHint {
		return allocHint
	}
	return int(n)
}

// SaveSmallGroup serialises a sample family (as returned by any strategy's
// Preprocess or a previous LoadSmallGroup).
func SaveSmallGroup(w io.Writer, p Prepared) error {
	sgp, ok := p.(*smallGroupPrepared)
	if !ok {
		return fmt.Errorf("core: %T is not a sample family", p)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(storeMagic)
	putU32(bw, storeVersion)

	// Runtime configuration.
	putU32(bw, uint32(sgp.cfg.MaxTablesPerQuery))
	putU32(bw, uint32(sgp.cfg.DistinctLimit))
	putF64(bw, sgp.overallScale)
	putU64(bw, sgp.dataGen)

	// Metadata.
	m := sgp.meta
	putU64(bw, uint64(m.BaseRows))
	putU32(bw, uint32(len(m.columns)))
	for _, cm := range m.columns {
		putString(bw, cm.Column)
		putU32(bw, uint32(cm.Distinct))
		putU64(bw, uint64(cm.RareRows))
		putValueSet(bw, cm.Common)
		if cm.Exact == nil {
			bw.WriteByte(0)
		} else {
			bw.WriteByte(1)
			putValueSet(bw, cm.Exact)
		}
	}
	putU32(bw, uint32(len(m.pairs)))
	for _, pm := range m.pairs {
		putString(bw, pm.Cols[0])
		putString(bw, pm.Cols[1])
		putU64(bw, uint64(pm.RareRows))
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
	version, err := getU32(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case 2:
		return nil, fmt.Errorf("core: store version 2 carries a confidence level this build no longer reads; it reads version %d only", storeVersion)
	case 3:
		return nil, fmt.Errorf("core: store version 3 does not record the distinct-value cutoff τ; this build reads version %d only", storeVersion)
	}
	if version != storeVersion {
		return nil, fmt.Errorf("core: unsupported store version %d", version)
	}

	var cfg SmallGroupConfig
	maxTables, err := getU32(br)
	if err != nil {
		return nil, err
	}
	if maxTables > maxStoreTables {
		return nil, fmt.Errorf("core: unreasonable max tables per query %d", maxTables)
	}
	cfg.MaxTablesPerQuery = int(maxTables)
	tau, err := getU32(br)
	if err != nil {
		return nil, err
	}
	cfg.DistinctLimit = int(tau)
	overallScale, err := getF64(br)
	if err != nil {
		return nil, err
	}
	dataGen, err := getU64(br)
	if err != nil {
		return nil, err
	}

	baseRows, err := getU64(br)
	if err != nil {
		return nil, err
	}
	ncols, err := getU32(br)
	if err != nil {
		return nil, err
	}
	if ncols > maxStoreColumns {
		return nil, fmt.Errorf("core: unreasonable column count %d", ncols)
	}
	metas := make([]ColumnMeta, ncols)
	for i := range metas {
		cm := &metas[i]
		if cm.Column, err = getString(br); err != nil {
			return nil, err
		}
		d, err := getU32(br)
		if err != nil {
			return nil, err
		}
		cm.Distinct = int(d)
		rr, err := getU64(br)
		if err != nil {
			return nil, err
		}
		cm.RareRows = int64(rr)
		if cm.Common, err = getValueSet(br); err != nil {
			return nil, err
		}
		hasExact, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if hasExact == 1 {
			if cm.Exact, err = getValueSet(br); err != nil {
				return nil, err
			}
		}
	}
	meta := NewMetadata(int64(baseRows), metas)

	npairs, err := getU32(br)
	if err != nil {
		return nil, err
	}
	if npairs > maxStorePairs {
		return nil, fmt.Errorf("core: unreasonable pair count %d", npairs)
	}
	for i := uint32(0); i < npairs; i++ {
		var pm PairMeta
		if pm.Cols[0], err = getString(br); err != nil {
			return nil, err
		}
		if pm.Cols[1], err = getString(br); err != nil {
			return nil, err
		}
		rr, err := getU64(br)
		if err != nil {
			return nil, err
		}
		pm.RareRows = int64(rr)
		nk, err := getU32(br)
		if err != nil {
			return nil, err
		}
		if nk > maxStoreSetSize {
			return nil, fmt.Errorf("core: unreasonable rare key count %d", nk)
		}
		pm.Rare = make(map[engine.GroupKey]struct{}, capHint(nk))
		for j := uint32(0); j < nk; j++ {
			k, err := getString(br)
			if err != nil {
				return nil, err
			}
			pm.Rare[engine.GroupKey(k)] = struct{}{}
		}
		meta.AddPair(pm)
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

func putU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func putU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func putF64(w *bufio.Writer, v float64) { putU64(w, math.Float64bits(v)) }

func putString(w *bufio.Writer, s string) {
	putU32(w, uint32(len(s)))
	w.WriteString(s)
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
	putU32(w, uint32(len(keys)))
	for _, k := range keys {
		putString(w, k)
	}
}

func getU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func getU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func getF64(r *bufio.Reader) (float64, error) {
	v, err := getU64(r)
	return math.Float64frombits(v), err
}

func getString(r *bufio.Reader) (string, error) {
	n, err := getU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("core: unreasonable string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func getValueSet(r *bufio.Reader) (map[engine.Value]struct{}, error) {
	n, err := getU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxStoreSetSize {
		return nil, fmt.Errorf("core: unreasonable value set size %d", n)
	}
	set := make(map[engine.Value]struct{}, capHint(n))
	for i := uint32(0); i < n; i++ {
		s, err := getString(r)
		if err != nil {
			return nil, err
		}
		vals, err := engine.DecodeKeyChecked(engine.GroupKey(s))
		if err != nil {
			return nil, fmt.Errorf("core: corrupt value entry: %w", err)
		}
		if len(vals) != 1 {
			return nil, fmt.Errorf("core: corrupt value entry")
		}
		set[vals[0]] = struct{}{}
	}
	return set, nil
}
