package server

import (
	"encoding/json"
	"math"
	"testing"

	"dynsample/internal/engine"
)

// FuzzDecodeCell holds decodeCell, which parses the usual cells in place, to
// what one json.Unmarshal per cell made of them: the same value to the bit,
// or the same error text, for every valid JSON value and column type. (Only
// valid JSON reaches decodeCell: the body's decoder has split it off.)
func FuzzDecodeCell(f *testing.F) {
	for _, seed := range []string{
		`"plain"`, `""`, `"tab\there"`, `"é😀"`, `"\ud800"`, "\"a\xffb\"", `"123"`, `"1e3"`, `"x\"y"`,
		`0`, `-0`, `7`, `-12`, `1.0`, `1.5`, `1e2`, `1E400`, `-1e-400`, `9223372036854775807`, `9223372036854775808`,
		`null`, `true`, `false`, `{}`, `[1]`, ` 12 `, "\n\"s\"\t", `0.1e+2`,
	} {
		for t := uint8(0); t < 3; t++ {
			f.Add([]byte(seed), t)
		}
	}
	f.Fuzz(func(t *testing.T, cell []byte, typ uint8) {
		if !json.Valid(cell) {
			return
		}
		col := engine.Type(typ % 3)
		got, gerr := decodeCell(col, cell)
		want, werr := decodeCellJSON(col, cell)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s cell %q: error %v, want %v", col, cell, gerr, werr)
		}
		if got.T != want.T || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("%s cell %q: %#v, want %#v", col, cell, got, want)
		}
	})
}
