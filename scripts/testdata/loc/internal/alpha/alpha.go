// Package alpha is the loc.sh fixture: 5 code lines.
package alpha

/* a block comment
   spanning lines */

// Add adds.
func Add(a, b int) int { // trailing comments count as code
	return a + b
}

/* one-line block */
var X = 1
