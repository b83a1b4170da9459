package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dynsample/internal/bitmask"
)

// Binary table serialization: sample tables are "stored in the database
// along with metadata" (§3.1); this package's stand-in for durable storage
// is a compact little-endian binary format, so pre-processed sample sets can
// be saved once and reloaded by later sessions (see core.SaveSmallGroup).

const tableMagic = "DSTB"

// WriteBinary writes the table in the binary sample-table format, including
// any bitmask and weight side arrays.
func WriteBinary(t *Table, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(tableMagic); err != nil {
		return err
	}
	writeString(bw, t.Name)
	writeU32(bw, uint32(t.NumRows()))
	writeU32(bw, uint32(t.NumCols()))
	for _, c := range t.Columns() {
		writeString(bw, c.Name)
		bw.WriteByte(byte(c.Type))
		switch c.Type {
		case Int:
			for _, v := range c.ints {
				writeU64(bw, uint64(v))
			}
		case Float:
			for _, v := range c.floats {
				writeU64(bw, math.Float64bits(v))
			}
		default:
			writeU32(bw, uint32(len(c.dict)))
			for _, s := range c.dict {
				writeString(bw, s)
			}
			for _, code := range c.codes {
				writeU32(bw, uint32(code))
			}
		}
	}
	if t.Masks != nil {
		bw.WriteByte(1)
		width := 0
		if len(t.Masks) > 0 {
			width = t.Masks[0].Width()
		}
		writeU32(bw, uint32(width))
		for _, m := range t.Masks {
			for _, b := range m.Bits() {
				writeU32(bw, uint32(b))
			}
			writeU32(bw, ^uint32(0)) // row terminator
		}
	} else {
		bw.WriteByte(0)
	}
	if t.Weights != nil {
		bw.WriteByte(1)
		for _, v := range t.Weights {
			writeU64(bw, math.Float64bits(v))
		}
	} else {
		bw.WriteByte(0)
	}
	return bw.Flush()
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
		return nil, fmt.Errorf("engine: bad table magic %q", magic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	rows, err := readU32(br)
	if err != nil {
		return nil, err
	}
	ncols, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("engine: unreasonable column count %d", ncols)
	}
	if ncols == 0 && rows > 0 {
		return nil, fmt.Errorf("engine: %d rows with no columns", rows)
	}
	// Never trust the header for allocation sizes: a corrupted or hostile
	// stream could claim billions of rows. Capacity starts bounded and the
	// slices grow only as data actually arrives.
	capHint := int(rows)
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	cols := make([]*Column, ncols)
	seen := make(map[string]bool, ncols)
	for j := range cols {
		cname, err := readString(br)
		if err != nil {
			return nil, err
		}
		if seen[cname] {
			return nil, fmt.Errorf("engine: duplicate column %q in stream", cname)
		}
		seen[cname] = true
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if tb > byte(String) {
			return nil, fmt.Errorf("engine: bad column type %d", tb)
		}
		c := NewColumn(cname, Type(tb))
		switch c.Type {
		case Int:
			c.ints = make([]int64, 0, capHint)
			for i := uint32(0); i < rows; i++ {
				v, err := readU64(br)
				if err != nil {
					return nil, err
				}
				c.ints = append(c.ints, int64(v))
			}
		case Float:
			c.floats = make([]float64, 0, capHint)
			for i := uint32(0); i < rows; i++ {
				v, err := readU64(br)
				if err != nil {
					return nil, err
				}
				c.floats = append(c.floats, math.Float64frombits(v))
			}
		default:
			dn, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if dn > rows && dn > 1<<16 {
				return nil, fmt.Errorf("engine: unreasonable dictionary size %d", dn)
			}
			for i := uint32(0); i < dn; i++ {
				s, err := readString(br)
				if err != nil {
					return nil, err
				}
				// One code per string: the scan kernel groups by code.
				if _, dup := c.dictIx[s]; dup {
					return nil, fmt.Errorf("engine: dictionary entry %q repeated", s)
				}
				c.dict = append(c.dict, s)
				c.dictIx[s] = int32(i)
			}
			c.codes = make([]int32, 0, capHint)
			for i := uint32(0); i < rows; i++ {
				v, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if v >= dn {
					return nil, fmt.Errorf("engine: dictionary code %d out of range", v)
				}
				c.codes = append(c.codes, int32(v))
			}
		}
		cols[j] = c
	}
	t := NewTable(name, cols...)

	hasMasks, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if hasMasks == 1 {
		width, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if width > 1<<20 {
			return nil, fmt.Errorf("engine: unreasonable mask width %d", width)
		}
		t.Masks = make([]bitmask.Mask, 0, capHint)
		for i := uint32(0); i < rows; i++ {
			m := bitmask.New(int(width))
			for {
				b, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if b == ^uint32(0) {
					break
				}
				if b >= width {
					return nil, fmt.Errorf("engine: mask bit %d out of width %d", b, width)
				}
				m.Set(int(b))
			}
			t.Masks = append(t.Masks, m)
		}
	}
	hasWeights, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if hasWeights == 1 {
		t.Weights = make([]float64, 0, capHint)
		for i := uint32(0); i < rows; i++ {
			v, err := readU64(br)
			if err != nil {
				return nil, err
			}
			t.Weights = append(t.Weights, math.Float64frombits(v))
		}
	}
	return t, nil
}

// The fixed-width writers run once per stored value, so they encode into the
// writer's own buffer: a local array passed to Write escapes, and a heap
// allocation per value made saving a checkpoint allocate twice its size.
func writeU32(w *bufio.Writer, v uint32) {
	w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), v))
}

func writeU64(w *bufio.Writer, v uint64) {
	w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("engine: unreasonable string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
