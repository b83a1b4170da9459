package main

import (
	"encoding/json"
	"testing"
)

// TestEncodeCSVCellEmitsJSONNumbers: a numeric cell Go parses but JSON does
// not (".5", "+5", "007", …) is sent as the number it parsed to, and a
// non-finite float is refused; forwarding the raw text used to abort the
// whole run in json.Marshal after earlier batches were posted.
func TestEncodeCSVCellEmitsJSONNumbers(t *testing.T) {
	cases := []struct {
		typ, cell, want string // want "" means refused
	}{
		{"INT", "007", "7"},
		{"INT", "+5", "5"},
		{"INT", " -12 ", "-12"},
		{"INT", "1_0", ""},
		{"INT", "5.", ""},
		{"FLOAT", ".5", "0.5"},
		{"FLOAT", "5.", "5"},
		{"FLOAT", "+5", "5"},
		{"FLOAT", "007", "7"},
		{"FLOAT", "1_0", "10"},
		{"FLOAT", "1e3", "1000"},
		{"FLOAT", "-2.25", "-2.25"},
		{"FLOAT", "1e300", "1e+300"},
		{"FLOAT", "NaN", ""},
		{"FLOAT", "Inf", ""},
		{"FLOAT", "-Inf", ""},
		{"FLOAT", "1e999", ""},
		{"FLOAT", "x", ""},
		{"VARCHAR", ".5", `".5"`},
	}
	for _, c := range cases {
		got, err := encodeCSVCell(c.typ, c.cell)
		if c.want == "" {
			if err == nil {
				t.Errorf("%s %q: accepted as %s", c.typ, c.cell, got)
			}
			continue
		}
		if err != nil || string(got) != c.want || !json.Valid(got) {
			t.Errorf("%s %q: %s, %v; want %s", c.typ, c.cell, got, err, c.want)
		}
	}
}
