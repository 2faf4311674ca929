// Package value implements the typed constants that appear in predicates,
// attributes and semantic constraints.
//
// A Value is a small immutable tagged union over the four primitive kinds the
// optimizer understands: strings, 64-bit integers, 64-bit floats and booleans.
// Values of the two numeric kinds are mutually comparable; every other
// comparison requires identical kinds. Value is a comparable struct, so it can
// be used directly as a map key.
package value

import (
	"fmt"
	"strconv"
)

// Kind identifies the primitive type carried by a Value.
type Kind uint8

// The supported primitive kinds.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Numeric reports whether the kind is one of the two numeric kinds.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is an immutable typed constant. The zero Value has KindInvalid and is
// not a legal operand; constructors always return valid Values.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// String returns a Value of KindString.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns a Value of KindInt.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a Value of KindFloat.
func Float(f float64) Value {
	if f == 0 {
		f = 0 // -0 compares equal to 0, so it must share 0's Key and rendering
	}
	return Value{kind: KindFloat, f: f}
}

// Bool returns a Value of KindBool.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether the value was produced by a constructor.
func (v Value) Valid() bool { return v.kind != KindInvalid }

// Str returns the string payload. It panics if the kind is not KindString.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s
}

// IntVal returns the integer payload. It panics if the kind is not KindInt.
func (v Value) IntVal() int64 {
	v.mustBe(KindInt)
	return v.i
}

// FloatVal returns the float payload. It panics if the kind is not KindFloat.
func (v Value) FloatVal() float64 {
	v.mustBe(KindFloat)
	return v.f
}

// BoolVal returns the boolean payload. It panics if the kind is not KindBool.
func (v Value) BoolVal() bool {
	v.mustBe(KindBool)
	return v.b
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s payload requested from %s value", k, v.kind))
	}
}

// Num returns the value as a float64 for numeric kinds.
// The second result is false for non-numeric kinds.
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Comparable reports whether two values can be ordered against each other:
// identical kinds always can, and the two numeric kinds can cross-compare.
func (v Value) Comparable(o Value) bool {
	if v.kind == o.kind {
		return v.kind != KindInvalid
	}
	return v.kind.Numeric() && o.kind.Numeric()
}

// Compare orders v against o, returning -1, 0 or +1. Booleans order
// false < true. It returns an error when the values are not comparable.
func (v Value) Compare(o Value) (int, error) {
	if !v.Comparable(o) {
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, o.kind)
	}
	switch {
	case v.kind == KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindBool:
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		}
		return 0, nil
	default: // numeric, possibly mixed
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1, nil
			case v.i > o.i:
				return 1, nil
			}
			return 0, nil
		}
		a, _ := v.Num()
		b, _ := o.Num()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	}
}

// Equal reports whether v and o compare equal. Values of incomparable kinds
// are never equal.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// Less reports whether v orders strictly before o. Incomparable values are
// reported as not-less.
func (v Value) Less(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c < 0
}

// String renders the value the way the paper prints constants: strings are
// double-quoted, numerics and booleans appear bare.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.s)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// Key returns a canonical, collision-free encoding of the value used when
// interning predicates. Distinct values always produce distinct keys, and the
// numeric kinds share an encoding so that Int(3) and Float(3) (which compare
// equal) intern identically.
func (v Value) Key() string {
	switch v.kind {
	case KindString:
		return "s" + strconv.Quote(v.s)
	case KindInt:
		return "n" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
	case KindFloat:
		return "n" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return "b" + strconv.FormatBool(v.b)
	default:
		return "!"
	}
}

// Parse interprets a literal the way the cmd/sqopt query parser needs:
// double-quoted text is a string, "true"/"false" are booleans, text that
// parses as an integer or float is numeric, and anything else is an error.
func Parse(lit string) (Value, error) {
	if lit == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	if lit[0] == '"' {
		s, err := strconv.Unquote(lit)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad string literal %s: %w", lit, err)
		}
		return String(s), nil
	}
	switch lit {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("value: unrecognized literal %q", lit)
}
