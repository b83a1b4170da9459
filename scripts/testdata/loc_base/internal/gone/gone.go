// Package gone exists only in the base fixture: 2 code lines.
package gone

var Z = 3
