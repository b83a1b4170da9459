package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndFloat(t *testing.T) {
	if v := IntVal(7); v.T != Int || v.Float() != 7 {
		t.Errorf("IntVal: %+v", v)
	}
	if v := FloatVal(2.5); v.T != Float || v.Float() != 2.5 {
		t.Errorf("FloatVal: %+v", v)
	}
	if v := StringVal("x"); v.T != String || v.Float() != 0 {
		t.Errorf("StringVal: %+v", v)
	}
}

func TestValueLess(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(2), true},
		{IntVal(2), IntVal(1), false},
		{IntVal(1), IntVal(1), false},
		{FloatVal(1.5), FloatVal(2.5), true},
		{StringVal("a"), StringVal("b"), true},
		{StringVal("b"), StringVal("a"), false},
		{IntVal(99), FloatVal(-1), true}, // cross-type: Int < Float by Type order
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if s := IntVal(-3).String(); s != "-3" {
		t.Errorf("IntVal string %q", s)
	}
	if s := FloatVal(2.5).String(); s != "2.5" {
		t.Errorf("FloatVal string %q", s)
	}
	if s := StringVal("TV").String(); s != "'TV'" {
		t.Errorf("StringVal string %q", s)
	}
}

func TestEncodeDecodeKeyRoundTrip(t *testing.T) {
	vals := []Value{IntVal(-5), StringVal("hello"), FloatVal(3.25), StringVal(""), IntVal(0)}
	got := decodeKey(EncodeKey(vals))
	if len(got) != len(vals) {
		t.Fatalf("round trip gave %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("value %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// Tuples that could collide under naive string concatenation.
	a := EncodeKey([]Value{StringVal("ab"), StringVal("c")})
	b := EncodeKey([]Value{StringVal("a"), StringVal("bc")})
	if a == b {
		t.Fatal("EncodeKey not injective on string splits")
	}
	c := EncodeKey([]Value{IntVal(1), IntVal(2)})
	d := EncodeKey([]Value{IntVal(1), IntVal(2), IntVal(0)})
	if c == d {
		t.Fatal("EncodeKey not injective on arity")
	}
}

func TestEncodeKeyRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(i int64, fl float64, s string) bool {
		vals := []Value{IntVal(i), FloatVal(fl), StringVal(s)}
		got := decodeKey(EncodeKey(vals))
		return len(got) == 3 && got[0] == vals[0] && got[1] == vals[1] && got[2] == vals[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}
