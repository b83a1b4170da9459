package bitmask

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fromBits returns a mask of the given width with the listed bits set.
func fromBits(width int, bits ...int) Mask {
	m := New(width)
	for _, b := range bits {
		m.Set(b)
	}
	return m
}

func TestNewIsZero(t *testing.T) {
	for _, width := range []int{0, 1, 63, 64, 65, 128, 245} {
		m := New(width)
		if !m.IsZero() {
			t.Errorf("New(%d) not zero", width)
		}
		if m.width != width || len(m.Words()) != (width+63)/64 {
			t.Errorf("New(%d) has width %d over %d words", width, m.width, len(m.Words()))
		}
		if bits := m.Bits(); len(bits) != 0 {
			t.Errorf("New(%d).Bits() = %v", width, bits)
		}
	}
}

func TestSetClearBit(t *testing.T) {
	m := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if m.Bit(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		m.Set(i)
		if !m.Bit(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if bits := m.Bits(); len(bits) != 8 {
		t.Fatalf("Bits() = %v, want 8 bits", bits)
	}
}

func TestFromBitsAndBits(t *testing.T) {
	m := fromBits(200, 3, 77, 199)
	got := m.Bits()
	want := []int{3, 77, 199}
	if len(got) != len(want) {
		t.Fatalf("Bits() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits() = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fromBits(80, 5)
	b := a.Clone()
	b.Set(6)
	if a.Bit(6) {
		t.Error("mutating clone affected original")
	}
	if !b.Bit(5) {
		t.Error("clone lost original bit")
	}
}

func TestUint64(t *testing.T) {
	// The paper's example: small group tables for columns A (index 0) and C
	// (index 2); the overall-sample filter uses mask 5 = 2^0 + 2^2.
	m := fromBits(3, 0, 2)
	if w := m.Words(); len(w) != 1 || w[0] != 5 {
		t.Fatalf("Words() = %v, want [5]", w)
	}
	wide := fromBits(100, 7, 64)
	if w := wide.Words(); len(w) != 2 || w[0] != 128 || w[1] != 1 {
		t.Fatalf("wide Words() = %v, want [128 1]", w)
	}
	if back := FromWords(100, wide.Words()); back.String() != "{7,64}" {
		t.Fatalf("FromWords(Words()) = %v, want {7,64}", back)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(10)
	for _, f := range []func(){
		func() { m.Set(10) },
		func() { m.Set(-1) },
		func() { m.Bit(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	FromWords(65, make([]uint64, 1))
}

func TestString(t *testing.T) {
	if s := fromBits(10, 0, 3).String(); s != "{0,3}" {
		t.Errorf("String() = %q", s)
	}
	if s := New(10).String(); s != "{}" {
		t.Errorf("zero String() = %q", s)
	}
}

// Property: Bits lists as many bits as Bit reports set, and every listed bit
// is set.
func TestOnesCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		const width = 200
		m := New(width)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			m.Set(r.Intn(width))
		}
		bits, ones := m.Bits(), 0
		for i := 0; i < width; i++ {
			if m.Bit(i) {
				ones++
			}
		}
		if len(bits) != ones {
			return false
		}
		for _, b := range bits {
			if !m.Bit(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
