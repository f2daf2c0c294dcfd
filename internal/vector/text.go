package vector

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// The flat-text field codec: the one definition, per direction, of how a
// field of the interchange format (comma-separated fields, one tuple per
// line) maps to a value. parseField reads, Value.AppendText prints; every
// other function here, and the tuple-level code in internal/adapters, is a
// row- or column-shaped caller of those two. The contract is written down
// in docs/INVARIANTS.md ("Text codec").

// parseField decodes one field. Surrounding white space is ignored; an
// empty field or NULL in any case is the NULL of t. For VARCHAR the
// returned Value.S is a substring of s.
func parseField(t Type, s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") {
		return NullValue(t), nil
	}
	switch t {
	case Int64, Timestamp:
		i, ok := parseDigits(s)
		if !ok {
			var err error
			if i, err = strconv.ParseInt(s, 10, 64); err != nil {
				return Value{}, fmt.Errorf("vector: parse %q as %s: %w", s, t, err)
			}
		}
		return Value{Typ: t, I: i}, nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("vector: parse %q as DOUBLE: %w", s, err)
		}
		return NewFloat(f), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("vector: parse %q as BOOLEAN: %w", s, err)
		}
		return NewBool(b), nil
	case String:
		return NewString(s), nil
	default:
		return Value{}, fmt.Errorf("vector: parse into unknown type")
	}
}

// parseDigits decodes [-]digits of at most 18 digits — the form nearly
// every integer on the wire has, and too short to overflow. Everything
// else (a leading +, 19 digits and more, garbage) is strconv.ParseInt's
// to accept or reject, so the two never disagree.
func parseDigits(s string) (int64, bool) {
	d := s
	if d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int64(c)
	}
	if len(d) != len(s) {
		n = -n
	}
	return n, true
}

// Parse converts the flat-text representation of a value into a typed
// Value. Empty strings and the literal "NULL" parse as NULL.
func Parse(t Type, s string) (Value, error) { return parseField(t, s) }

// AppendField parses one field of a text tuple and appends its value. The
// bytes are only read during the call: a VARCHAR is copied out of them, so
// the caller may reuse its read buffer. On error v is unchanged.
func (v *Vector) AppendField(field []byte) error {
	// A string view of the bytes, so both entry points share one parser;
	// strconv copies what it quotes in an error and parseField keeps
	// nothing else.
	x, err := parseField(v.typ, unsafe.String(unsafe.SliceData(field), len(field)))
	if err != nil {
		return err
	}
	if v.typ == String && !x.Null {
		x.S = strings.Clone(x.S)
	}
	v.AppendValue(x)
	return nil
}

// AppendText appends the value in the flat-text interchange format used
// by the receptors and emitters. NULL prints as NULL, a DOUBLE in its
// shortest form that parses back to the same value.
func (v Value) AppendText(dst []byte) []byte {
	if v.Null {
		return append(dst, "NULL"...)
	}
	switch v.Typ {
	case Int64, Timestamp:
		return strconv.AppendInt(dst, v.I, 10)
	case Float64:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, v.B)
	case String:
		return append(dst, v.S...)
	default:
		return append(dst, '?')
	}
}

// String renders the value as AppendText does.
func (v Value) String() string {
	if v.Typ == String && !v.Null {
		return v.S
	}
	var buf [24]byte // the longest DOUBLE, -2.2250738585072014e-308
	return string(v.AppendText(buf[:0]))
}

// AppendText appends element i as Value.AppendText prints it.
func (v *Vector) AppendText(dst []byte, i int) []byte { return v.Get(i).AppendText(dst) }
