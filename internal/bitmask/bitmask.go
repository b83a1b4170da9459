// Package bitmask provides variable-length bit masks used to tag sample rows
// with the set of small group tables they belong to.
//
// The paper (§4.2.1) attaches to every sampled row "an extra bitmask field (of
// length |S|) indicating the set of small group tables to which that row was
// added", where S is the set of columns with small group tables. |S| routinely
// exceeds 64 (the SALES schema has 120–245 candidate columns), so a single
// machine word is not enough; masks here are backed by a []uint64.
//
// A Mask is a plan-time value: a query's plan holds a few (the tables it has
// used so far, one exclude mask per step). Sample rows do not hold Masks: a
// row stores its membership as one 64-bit integer column per word (see
// engine.MaskColumn), and the scan filters on those words.
package bitmask

import (
	"fmt"
	"strings"
)

const wordBits = 64

// Mask is a fixed-width bit mask. The zero value is an empty mask of width 0.
// Masks are value types; Clone before mutating a shared mask.
type Mask struct {
	words []uint64
	width int
}

// New returns an all-zero mask wide enough to hold width bits.
func New(width int) Mask {
	if width < 0 {
		panic(fmt.Sprintf("bitmask: negative width %d", width))
	}
	return Mask{words: make([]uint64, (width+wordBits-1)/wordBits), width: width}
}

// FromBits returns a mask of the given width with the listed bits set.
func FromBits(width int, bits ...int) Mask {
	m := New(width)
	for _, b := range bits {
		m.Set(b)
	}
	return m
}

// FromWords returns the mask of the given width over words, which it keeps:
// bit i of the mask is bit i%64 of words[i/64].
func FromWords(width int, words []uint64) Mask {
	if len(words) != (width+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitmask: %d words for width %d", len(words), width))
	}
	return Mask{words: words, width: width}
}

// Words returns the mask's words, low bits first. The slice is the mask's
// own storage; callers must not modify it.
func (m Mask) Words() []uint64 { return m.words }

// Width reports the number of addressable bits in the mask.
func (m Mask) Width() int { return m.width }

// Set sets bit i.
func (m Mask) Set(i int) {
	m.check(i)
	m.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (m Mask) Clear(i int) {
	m.check(i)
	m.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Bit reports whether bit i is set.
func (m Mask) Bit(i int) bool {
	m.check(i)
	return m.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (m Mask) check(i int) {
	if i < 0 || i >= m.width {
		panic(fmt.Sprintf("bitmask: bit %d out of range [0,%d)", i, m.width))
	}
}

// Clone returns an independent copy of the mask.
func (m Mask) Clone() Mask {
	w := make([]uint64, len(m.words))
	copy(w, m.words)
	return Mask{words: w, width: m.width}
}

// Or sets m to m | other, in place. The widths must match.
func (m Mask) Or(other Mask) {
	m.checkWidth(other)
	for i, w := range other.words {
		m.words[i] |= w
	}
}

// AndNot clears every bit of m that is set in other, in place.
func (m Mask) AndNot(other Mask) {
	m.checkWidth(other)
	for i, w := range other.words {
		m.words[i] &^= w
	}
}

// Intersects reports whether m and other share any set bit. This implements
// the rewritten-query filter "bitmask & mask = 0" from §4.2.2: a row passes
// the filter exactly when !row.Mask.Intersects(usedTables).
func (m Mask) Intersects(other Mask) bool {
	m.checkWidth(other)
	for i, w := range other.words {
		if m.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IsZero reports whether no bit is set.
func (m Mask) IsZero() bool {
	for _, w := range m.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (m Mask) OnesCount() int {
	n := 0
	for _, w := range m.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Equal reports whether the two masks have identical width and bits.
func (m Mask) Equal(other Mask) bool {
	if m.width != other.width {
		return false
	}
	for i := range m.words {
		if m.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Bits returns the indices of the set bits in ascending order.
func (m Mask) Bits() []int {
	var bits []int
	for i := 0; i < m.width; i++ {
		if m.Bit(i) {
			bits = append(bits, i)
		}
	}
	return bits
}

// Uint64 returns the low 64 bits of the mask. It is the decimal value printed
// in rewritten SQL when |S| <= 64, matching the paper's "bitmask & 5 = 0"
// example. It panics if any bit at position >= 64 is set.
func (m Mask) Uint64() uint64 {
	for i, w := range m.words {
		if i > 0 && w != 0 {
			panic("bitmask: mask wider than 64 bits has high bits set")
		}
	}
	if len(m.words) == 0 {
		return 0
	}
	return m.words[0]
}

// String renders the mask as its set-bit list, e.g. "{0,2}".
func (m Mask) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range m.Bits() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	sb.WriteByte('}')
	return sb.String()
}

func (m Mask) checkWidth(other Mask) {
	if m.width != other.width {
		panic(fmt.Sprintf("bitmask: width mismatch %d vs %d", m.width, other.width))
	}
}
