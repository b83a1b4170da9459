// Package alpha is the locdiff.sh base fixture: 7 code lines against the
// 5 of scripts/testdata/loc, and no sub package.
package alpha

// Add adds.
func Add(a, b int) int {
	c := a + b
	return c
}

var X = 1
var Y = 2
