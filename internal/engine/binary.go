package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"dynsample/internal/binio"
)

// Binary table serialization: sample tables are "stored in the database
// along with metadata" (§3.1); this package's stand-in for durable storage
// is a compact little-endian binary format, so pre-processed sample sets can
// be saved once and reloaded by later sessions (see core.SaveSmallGroup).

// tableMagic names the one table format: a header and the columns, a sample
// table's weights among them (and an older sample table's mask words, read
// as any reserved Int column). ("DSTB" files kept those in two
// sections after the columns; nothing reads them any more.) The header,
// column names and dictionaries are in binio's field layout; values are
// fixed-width little-endian cells, a column at a time.
const tableMagic = "DST2"

// Caps on the header's counts and strings, which binio refuses past.
const (
	maxTableColumns = 1 << 16
	maxTableString  = 1 << 24 // bytes per table or column name or dictionary entry
	minDictCap      = 1 << 16 // a dictionary may always hold this many entries, however few rows
)

// WriteBinary writes the table, every column of it, in the binary table
// format.
func WriteBinary(t *Table, w io.Writer) error {
	views := make([]ColumnView, t.NumCols())
	for i, c := range t.Columns() {
		views[i] = c.View()
	}
	return writeRows(w, t.Name, views, 0, t.NumRows(), false)
}

// WriteRowsBinary writes rows [lo, hi) of the joined view in the binary
// table format: the bytes WriteBinary makes of the flat table (Flat) of a
// fact slice of those rows, without building it. Values go from the column chunks to w
// through one block-sized buffer, a column at a time.
func (db *Database) WriteRowsBinary(w io.Writer, name string, lo, hi int) error {
	views := make([]ColumnView, len(db.colNames))
	for i, cn := range db.colNames {
		views[i], _ = db.View(cn) // a name from colNames is bound
		views[i].unpack()
	}
	return writeRows(w, name, views, lo, hi, true)
}

// writeRows writes rows [lo, hi) of the given columns as one table. compact
// writes each string column's dictionary as gather would rebuild it — the
// strings the rows use, in order of first appearance — instead of whole.
func writeRows(w io.Writer, name string, views []ColumnView, lo, hi int, compact bool) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(tableMagic); err != nil {
		return err
	}
	binio.PutString(bw, name)
	binio.PutU32(bw, uint32(hi-lo))
	binio.PutU32(bw, uint32(len(views)))
	e := blockEncoder{w: bw, buf: make([]byte, 0, 8*scanBlockRows), vals: newBlockBuf()}
	for i := range views {
		v := &views[i]
		binio.PutString(bw, v.Name)
		bw.WriteByte(byte(v.Type))
		var remap []int32
		if v.Type == String {
			dict := v.Dict
			if compact {
				dict, remap = e.usedDict(v, lo, hi)
			}
			binio.PutU32(bw, uint32(len(dict)))
			for _, s := range dict {
				binio.PutString(bw, s)
			}
		}
		e.column(v, lo, hi, remap)
	}
	return bw.Flush()
}

// blockEncoder writes column values a block at a time: a block is encoded
// into buf and handed to w in one Write, not a call per value.
type blockEncoder struct {
	w    *bufio.Writer
	buf  []byte
	vals blockBuf
}

// column writes the values of view rows [lo, hi); a string column's codes
// are translated through remap when it is not nil.
func (e *blockEncoder) column(v *ColumnView, lo, hi int, remap []int32) {
	for n := 0; lo < hi; lo += n {
		n = blockLen(lo, hi)
		switch v.Type {
		case Int:
			b := e.buf
			for _, x := range block(&v.ints, v, lo, n, e.vals.ints, &e.vals) {
				b = binary.LittleEndian.AppendUint64(b, uint64(x))
			}
			e.w.Write(b)
		case Float:
			b := e.buf
			for _, x := range block(&v.floats, v, lo, n, e.vals.floats, &e.vals) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
			e.w.Write(b)
		default:
			b := e.buf
			for _, code := range block(&v.codes, v, lo, n, e.vals.codes, &e.vals) {
				if remap != nil {
					code = remap[code]
				}
				b = binary.LittleEndian.AppendUint32(b, uint32(code))
			}
			e.w.Write(b)
		}
	}
}

// usedDict returns the dictionary entries view rows [lo, hi) of a string
// column use, in order of first appearance, and the old code -> new code
// table.
func (e *blockEncoder) usedDict(v *ColumnView, lo, hi int) (dict []string, remap []int32) {
	remap = make([]int32, len(v.Dict))
	for k := range remap {
		remap[k] = -1
	}
	for n := 0; lo < hi; lo += n {
		n = blockLen(lo, hi)
		for _, code := range block(&v.codes, v, lo, n, e.vals.codes, &e.vals) {
			if remap[code] < 0 {
				remap[code] = int32(len(dict))
				dict = append(dict, v.Dict[code])
			}
		}
	}
	return dict, remap
}

// readChunks reads rows values of the given width into chunks, one ReadFull
// and one decode call per chunk, each sealed as it arrives. A chunk is
// allocated once its bytes have arrived: the header's row count is never
// trusted for an allocation size, since a corrupted or hostile stream could
// claim billions of rows.
func readChunks[T stored](r io.Reader, rows uint32, width int, buf []byte, decode func(dst []T, src []byte) error) (s chunked[T], err error) {
	var vals []T
	for left := int(rows); left > 0; left -= chunkRows {
		n := min(left, chunkRows)
		src := buf[:n*width]
		if _, err := io.ReadFull(r, src); err != nil {
			return s, err
		}
		if len(vals) != n {
			vals = make([]T, n)
		}
		if err := decode(vals, src); err != nil {
			return s, err
		}
		vals = s.add(vals)
	}
	return s, nil
}

// ReadBinary reads a table written by WriteBinary. When r is already a
// *bufio.Reader it is used directly, so multiple tables can be read back to
// back from one stream without losing buffered bytes.
func ReadBinary(r io.Reader) (*Table, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("engine: reading table header: %w", err)
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("engine: table format %q: this build reads %q only", magic, tableMagic)
	}
	in := binio.NewReader(br)
	name, rows, ncols := in.String(maxTableString), in.U32(), in.Count(maxTableColumns, "column count")
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading table header: %w", err)
	}
	if ncols == 0 && rows > 0 {
		return nil, fmt.Errorf("engine: %d rows with no columns", rows)
	}
	buf := make([]byte, 8*chunkRows)
	t := newTable(name, ncols)
	seen := make(map[string]bool, ncols)
	for j := 0; j < ncols; j++ {
		cname, tb := in.String(maxTableString), in.U8()
		if err := in.Err(); err != nil {
			return nil, fmt.Errorf("engine: reading column %d: %w", j, err)
		}
		if seen[cname] {
			return nil, fmt.Errorf("engine: duplicate column %q in stream", cname)
		}
		seen[cname] = true
		if tb > byte(String) {
			return nil, fmt.Errorf("engine: bad column type %d", tb)
		}
		if want := reservedType(cname); strings.HasPrefix(cname, ReservedPrefix) && Type(tb) != want {
			return nil, fmt.Errorf("engine: reserved column %q must be %s", cname, want)
		}
		c := NewColumn(cname, Type(tb))
		var err error
		switch c.Type {
		case Int:
			c.ints, err = readChunks(br, rows, 8, buf, func(dst []int64, src []byte) error {
				for i := range dst {
					dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
				}
				return nil
			})
		case Float:
			c.floats, err = readChunks(br, rows, 8, buf, func(dst []float64, src []byte) error {
				for i := range dst {
					dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
				}
				return nil
			})
		default:
			dict := in.Strings(max(int(rows), minDictCap), maxTableString, "dictionary size")
			if err := in.Err(); err != nil {
				return nil, fmt.Errorf("engine: reading column %q: %w", cname, err)
			}
			for _, s := range dict {
				// One code per string: the scan kernel groups by code.
				if _, dup := c.dictIx[s]; dup {
					return nil, fmt.Errorf("engine: dictionary entry %q repeated", s)
				}
				c.addDict(s)
			}
			dn := uint32(len(dict))
			c.codes, err = readChunks(br, rows, 4, buf, func(dst []int32, src []byte) error {
				for i := range dst {
					v := binary.LittleEndian.Uint32(src[4*i:])
					if v >= dn {
						return fmt.Errorf("engine: dictionary code %d out of range", v)
					}
					dst[i] = int32(v)
				}
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
		c.n, c.written = int(rows), int(rows)
		t.addColumn(c)
	}
	return t, nil
}
