package relational

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the column types supported by the engine. The size-l OS
// workloads (DBLP, TPC-H) only need integers, floats and strings.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column (also used for all keys).
	KindInt Kind = iota
	// KindFloat is a 64-bit floating point column.
	KindFloat
	// KindString is a variable-length string column.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed cell. Exactly one of the payload fields is
// meaningful, selected by Kind. A struct (rather than interface{}) keeps
// tuples pointer-free and cache-friendly; OSs routinely touch 10^3..10^6
// tuples per query.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// IntVal returns an integer Value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatVal returns a float Value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// StrVal returns a string Value.
func StrVal(v string) Value { return Value{Kind: KindString, Str: v} }

// String renders the value for OS output (Examples 4 and 5 in the paper).
func (v Value) String() string {
	if v.Kind == KindString {
		return v.Str
	}
	return string(v.Append(nil))
}

// Append appends String's text to dst. A float is what
// strconv.FormatFloat(v, 'f', 2, 64) gives, through its shortest form
// padded to two places when that has at most two and |v| < 1e13: there
// half an ulp is under 0.001, so v rounded to two places is that form, and
// strconv's fixed precision path, which is slow, is skipped.
func (v Value) Append(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case KindFloat:
		if n := len(dst); math.Abs(v.Float) < 1e13 {
			dst = strconv.AppendFloat(dst, v.Float, 'f', -1, 64)
			dot := bytes.IndexByte(dst[n:], '.')
			if dot < 0 {
				return append(dst, ".00"...)
			}
			if frac := len(dst) - n - dot - 1; frac <= 2 {
				return append(dst, "00"[frac:]...)
			}
			dst = dst[:n]
		}
		return strconv.AppendFloat(dst, v.Float, 'f', 2, 64)
	case KindString:
		return append(dst, v.Str...)
	}
	return append(dst, '?')
}

// Equal reports whether two values are identical in kind and payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		return v.Float == o.Float
	case KindString:
		return v.Str == o.Str
	}
	return false
}

// Less orders values of the same kind (ints and floats numerically, strings
// lexicographically). It is used by deterministic secondary sorts.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case KindInt:
		return v.Int < o.Int
	case KindFloat:
		return v.Float < o.Float
	case KindString:
		return v.Str < o.Str
	}
	return false
}
