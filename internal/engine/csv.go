package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the table as CSV with a header row. String values are
// written verbatim; numeric values in their shortest decimal form.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Columns() {
			switch c.Type {
			case Int:
				rec[j] = strconv.FormatInt(c.Int(i), 10)
			case Float:
				rec[j] = strconv.FormatFloat(c.Float(i), 'g', -1, 64)
			default:
				rec[j] = c.Value(i).S
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a table from CSV with a header row, inferring each column's
// type: a column whose every value parses as an integer is Int, else Float
// if every value parses as a number, else String.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: reading CSV header: %w", err)
	}
	names := append([]string(nil), header...)
	for _, n := range names {
		if err := CheckColumnName(n); err != nil {
			return nil, err
		}
	}

	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("engine: reading CSV: %w", err)
		}
		rows = append(rows, append([]string(nil), rec...))
	}

	types := make([]Type, len(names))
	for j := range names {
		types[j] = inferType(rows, j)
	}
	cols := make([]*Column, len(names))
	for j, n := range names {
		cols[j] = NewColumn(n, types[j])
	}
	tbl := NewTable(name, cols...)
	for _, rec := range rows {
		for j, s := range rec {
			switch types[j] {
			case Int:
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: bad int %q in column %q", s, names[j])
				}
				cols[j].AppendInt(v)
			case Float:
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: bad float %q in column %q", s, names[j])
				}
				cols[j].AppendFloat(v)
			default:
				cols[j].AppendString(s)
			}
		}
		tbl.EndRow()
	}
	return tbl, nil
}

func inferType(rows [][]string, col int) Type {
	if len(rows) == 0 {
		return String
	}
	isInt, isFloat := true, true
	for _, rec := range rows {
		s := rec[col]
		if isInt {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				isInt = false
			}
		}
		if !isInt && isFloat {
			if _, err := strconv.ParseFloat(s, 64); err != nil {
				isFloat = false
				break
			}
		}
	}
	switch {
	case isInt:
		return Int
	case isFloat:
		return Float
	default:
		return String
	}
}
