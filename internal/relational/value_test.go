package relational

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{IntVal(42), "42"},
		{IntVal(-3), "-3"},
		{FloatVal(2.5), "2.50"},
		{StrVal("SIGMOD"), "SIGMOD"},
		{Value{Kind: Kind(9)}, "?"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindInt, "INTEGER"},
		{KindFloat, "FLOAT"},
		{KindString, "VARCHAR"},
		{Kind(7), "Kind(7)"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(1), true},
		{IntVal(1), IntVal(2), false},
		{FloatVal(1.5), FloatVal(1.5), true},
		{FloatVal(1.5), FloatVal(2.5), false},
		{StrVal("a"), StrVal("a"), true},
		{StrVal("a"), StrVal("b"), false},
		{IntVal(1), FloatVal(1), false},
		{IntVal(1), StrVal("1"), false},
	}
	for _, tc := range tests {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("Equal(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueLess(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(2), true},
		{IntVal(2), IntVal(1), false},
		{FloatVal(1), FloatVal(2), true},
		{StrVal("a"), StrVal("b"), true},
		{StrVal("b"), StrVal("a"), false},
		{IntVal(5), FloatVal(0), true}, // kind ordering: int < float
	}
	for _, tc := range tests {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Errorf("Less(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestFloatAppendMatchesFormatFloat: a float renders as
// strconv.FormatFloat(v, 'f', 2, 64) whether or not Append's shortest-form
// path takes it: 2^20 seeded values (random bit patterns, 2^-40 to 2^64 but
// for one in 64; values already at two decimals; values at every magnitude
// from 1e-4 to 1e16), and the edge cases: signed zeros, NaN, infinities,
// halfway cases, subnormals and the 1e13 boundary.
func TestFloatAppendMatchesFormatFloat(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		want := strconv.FormatFloat(v, 'f', 2, 64)
		if got := FloatVal(v).String(); got != want {
			t.Fatalf("%v (bits %#x) renders %q, FormatFloat %q", v, math.Float64bits(v), got, want)
		}
		if got := string(FloatVal(v).Append([]byte("x"))); got != "x"+want {
			t.Fatalf("%v appended to a prefix renders %q, want %q", v, got, "x"+want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		2.675, -2.675, 1.005, 0.125, 0.375, 0.005, 0.015, 1e-2, 0.1, 0.29, 123.456, 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 1e13, -1e13, math.Nextafter(1e13, 0),
		9999999999999.99, 1e13 + 0.5, 1e15, 1e21, 1e22, math.MaxFloat64, -math.MaxFloat64} {
		check(v)
	}
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 1<<20; i++ {
		var v float64
		switch i % 4 {
		case 0:
			// Random bits, mostly between 2^-40 and 2^64: 'f' spells a huge
			// or tiny one out in hundreds of digits, which only costs time.
			bits := r.Uint64()
			if i%64 != 0 {
				bits = bits&^(0x7ff<<52) | uint64(1023-40+r.Intn(104))<<52
			}
			v = math.Float64frombits(bits)
		case 1:
			v = float64(r.Int63n(1e15)) / 100 // two decimals, the fast path
		case 2:
			v = float64(r.Int63n(1e6)) / 1000 // three: halfway cases among them
		default:
			v = r.Float64() * math.Pow(10, float64(r.Intn(21)-4))
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		check(v)
	}
}
