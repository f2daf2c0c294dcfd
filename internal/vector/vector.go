// Package vector provides typed, densely packed columns — the lowest layer
// of the columnar kernel. A Vector stores the values of one attribute for a
// run of tuples, mirroring the tail column of a MonetDB BAT.
package vector

import (
	"fmt"
	"strings"
)

// Type enumerates the value types the kernel supports.
type Type uint8

// Supported column types.
const (
	Unknown Type = iota
	Int64
	Float64
	Bool
	String
	Timestamp // nanoseconds since the Unix epoch, stored as int64
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Bool:
		return "BOOLEAN"
	case String:
		return "VARCHAR"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return "UNKNOWN"
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool {
	return t == Int64 || t == Float64 || t == Timestamp
}

// ParseType converts a SQL type name to a Type. It accepts the common
// aliases (INT, INTEGER, BIGINT, FLOAT, DOUBLE, REAL, TEXT, VARCHAR,
// BOOLEAN, TIMESTAMP).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return Int64, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return Float64, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR", "CLOB":
		return String, nil
	case "TIMESTAMP", "DATETIME":
		return Timestamp, nil
	default:
		return Unknown, fmt.Errorf("vector: unknown type %q", name)
	}
}

// Value is a single scalar used at the boundaries of the kernel (constant
// folding, row interchange, adapters). Inside operators, values stay in
// typed slices.
type Value struct {
	Typ  Type
	Null bool
	I    int64 // Int64 and Timestamp payload
	F    float64
	B    bool
	S    string
}

// NullValue returns the NULL of the given type.
func NullValue(t Type) Value { return Value{Typ: t, Null: true} }

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Typ: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Typ: Float64, F: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value { return Value{Typ: Bool, B: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Typ: String, S: v} }

// NewTimestamp returns a Timestamp value from nanoseconds since the epoch.
func NewTimestamp(ns int64) Value { return Value{Typ: Timestamp, I: ns} }

// AsFloat converts a numeric value to float64. Booleans convert to 0/1.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case Int64, Timestamp:
		return float64(v.I)
	case Float64:
		return v.F
	case Bool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Typ {
	case Int64, Timestamp:
		return v.I
	case Float64:
		return int64(v.F)
	case Bool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Compare orders two values of the same type: -1, 0, or +1. NULL sorts
// before every non-NULL value; two NULLs compare equal.
func Compare(a, b Value) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null:
			return -1
		default:
			return 1
		}
	}
	switch a.Typ {
	case Int64, Timestamp:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case Bool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

// Vector is a densely packed column of one Type. Only the slice matching
// the type is populated. The null mask is allocated lazily: a nil nulls
// slice means the column contains no NULLs.
type Vector struct {
	typ   Type
	ints  []int64   // Int64, Timestamp
	flts  []float64 // Float64
	bools []bool    // Bool
	strs  []string  // String
	nulls []bool    // lazily allocated; nil == no NULLs
}

// New returns an empty vector of type t.
func New(t Type) *Vector { return NewWithCap(t, 0) }

// NewWithCap returns an empty vector of type t with capacity hint n.
func NewWithCap(t Type, n int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Int64, Timestamp:
		v.ints = make([]int64, 0, n)
	case Float64:
		v.flts = make([]float64, 0, n)
	case Bool:
		v.bools = make([]bool, 0, n)
	case String:
		v.strs = make([]string, 0, n)
	}
	return v
}

// FromInts wraps an int64 slice as an Int64 vector (no copy).
func FromInts(vals []int64) *Vector { return &Vector{typ: Int64, ints: vals} }

// FromFloats wraps a float64 slice as a Float64 vector (no copy).
func FromFloats(vals []float64) *Vector { return &Vector{typ: Float64, flts: vals} }

// FromBools wraps a bool slice as a Bool vector (no copy).
func FromBools(vals []bool) *Vector { return &Vector{typ: Bool, bools: vals} }

// FromStrings wraps a string slice as a String vector (no copy).
func FromStrings(vals []string) *Vector { return &Vector{typ: String, strs: vals} }

// FromTimestamps wraps an int64 slice as a Timestamp vector (no copy).
func FromTimestamps(vals []int64) *Vector { return &Vector{typ: Timestamp, ints: vals} }

// Const returns a vector of n copies of value v.
func Const(v Value, n int) *Vector {
	out := NewWithCap(v.Typ, n)
	for i := 0; i < n; i++ {
		out.AppendValue(v)
	}
	return out
}

// Type returns the element type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of elements.
func (v *Vector) Len() int {
	switch v.typ {
	case Int64, Timestamp:
		return len(v.ints)
	case Float64:
		return len(v.flts)
	case Bool:
		return len(v.bools)
	case String:
		return len(v.strs)
	default:
		return 0
	}
}

// HasNulls reports whether any element is NULL.
func (v *Vector) HasNulls() bool {
	for _, n := range v.nulls {
		if n {
			return true
		}
	}
	return false
}

// IsNull reports whether element i is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.nulls != nil && v.nulls[i]
}

func (v *Vector) ensureNulls() {
	if v.nulls == nil {
		v.nulls = make([]bool, v.Len())
	}
	for len(v.nulls) < v.Len() {
		v.nulls = append(v.nulls, false)
	}
}

// Ints exposes the backing int64 slice (Int64/Timestamp vectors).
func (v *Vector) Ints() []int64 { return v.ints }

// Floats exposes the backing float64 slice (Float64 vectors).
func (v *Vector) Floats() []float64 { return v.flts }

// Bools exposes the backing bool slice (Bool vectors).
func (v *Vector) Bools() []bool { return v.bools }

// Strings exposes the backing string slice (String vectors).
func (v *Vector) Strings() []string { return v.strs }

// AppendInt appends an int64 (Int64/Timestamp vectors).
func (v *Vector) AppendInt(x int64) {
	v.ints = append(v.ints, x)
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

// AppendFloat appends a float64 (Float64 vectors).
func (v *Vector) AppendFloat(x float64) {
	v.flts = append(v.flts, x)
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

// AppendBool appends a bool (Bool vectors).
func (v *Vector) AppendBool(x bool) {
	v.bools = append(v.bools, x)
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

// AppendString appends a string (String vectors).
func (v *Vector) AppendString(x string) {
	v.strs = append(v.strs, x)
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

// AppendNull appends a NULL element.
func (v *Vector) AppendNull() {
	switch v.typ {
	case Int64, Timestamp:
		v.ints = append(v.ints, 0)
	case Float64:
		v.flts = append(v.flts, 0)
	case Bool:
		v.bools = append(v.bools, false)
	case String:
		v.strs = append(v.strs, "")
	}
	v.ensureNulls()
	v.nulls[v.Len()-1] = true
}

// AppendValue appends a Value, which must match the vector type (NULLs of
// any type are accepted).
func (v *Vector) AppendValue(x Value) {
	if x.Null {
		v.AppendNull()
		return
	}
	switch v.typ {
	case Int64, Timestamp:
		v.AppendInt(x.I)
	case Float64:
		v.AppendFloat(x.F)
	case Bool:
		v.AppendBool(x.B)
	case String:
		v.AppendString(x.S)
	}
}

// AppendVector appends all elements of other, which must have the same type.
func (v *Vector) AppendVector(other *Vector) {
	if other == nil || other.Len() == 0 {
		return
	}
	if other.nulls != nil || v.nulls != nil {
		// other is only read: it may be shared with a reader on another
		// goroutine. Rows past its mask are not NULL.
		v.ensureNulls()
		v.nulls = append(v.nulls, other.nulls...)
		for k := len(other.nulls); k < other.Len(); k++ {
			v.nulls = append(v.nulls, false)
		}
	}
	switch v.typ {
	case Int64, Timestamp:
		v.ints = append(v.ints, other.ints...)
	case Float64:
		v.flts = append(v.flts, other.flts...)
	case Bool:
		v.bools = append(v.bools, other.bools...)
	case String:
		v.strs = append(v.strs, other.strs...)
	}
}

// Get returns element i as a Value.
func (v *Vector) Get(i int) Value {
	if v.IsNull(i) {
		return NullValue(v.typ)
	}
	switch v.typ {
	case Int64:
		return NewInt(v.ints[i])
	case Timestamp:
		return NewTimestamp(v.ints[i])
	case Float64:
		return NewFloat(v.flts[i])
	case Bool:
		return NewBool(v.bools[i])
	case String:
		return NewString(v.strs[i])
	default:
		return Value{}
	}
}

// Set overwrites element i with x, which must match the vector type.
func (v *Vector) Set(i int, x Value) {
	if x.Null {
		v.ensureNulls()
		v.nulls[i] = true
		return
	}
	if v.nulls != nil {
		v.nulls[i] = false
	}
	switch v.typ {
	case Int64, Timestamp:
		v.ints[i] = x.I
	case Float64:
		v.flts[i] = x.F
	case Bool:
		v.bools[i] = x.B
	case String:
		v.strs[i] = x.S
	}
}

// Window returns a read-only view of elements [lo, hi). The view shares
// backing storage with v; callers must not append to it.
func (v *Vector) Window(lo, hi int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Int64, Timestamp:
		out.ints = v.ints[lo:hi:hi]
	case Float64:
		out.flts = v.flts[lo:hi:hi]
	case Bool:
		out.bools = v.bools[lo:hi:hi]
	case String:
		out.strs = v.strs[lo:hi:hi]
	}
	if v.nulls != nil {
		out.nulls = v.nulls[lo:hi:hi]
	}
	return out
}

// Take materializes a new vector containing the elements at the given
// positions, in order. It is the kernel's positional projection (MonetDB's
// leftfetchjoin against a candidate list).
func (v *Vector) Take(pos []int) *Vector {
	out := NewWithCap(v.typ, len(pos))
	switch v.typ {
	case Int64, Timestamp:
		for _, p := range pos {
			out.ints = append(out.ints, v.ints[p])
		}
	case Float64:
		for _, p := range pos {
			out.flts = append(out.flts, v.flts[p])
		}
	case Bool:
		for _, p := range pos {
			out.bools = append(out.bools, v.bools[p])
		}
	case String:
		for _, p := range pos {
			out.strs = append(out.strs, v.strs[p])
		}
	}
	if v.nulls != nil {
		out.nulls = make([]bool, 0, len(pos))
		for _, p := range pos {
			out.nulls = append(out.nulls, v.nulls[p])
		}
	}
	return out
}

// AppendTake appends src's elements at the given positions, each shifted
// down by base — the chunk-local form of Take used when gathering a
// candidate list that spans several column segments. Positions must
// satisfy base <= p < base+src.Len().
func (v *Vector) AppendTake(src *Vector, pos []int, base int) {
	switch v.typ {
	case Int64, Timestamp:
		for _, p := range pos {
			v.ints = append(v.ints, src.ints[p-base])
		}
	case Float64:
		for _, p := range pos {
			v.flts = append(v.flts, src.flts[p-base])
		}
	case Bool:
		for _, p := range pos {
			v.bools = append(v.bools, src.bools[p-base])
		}
	case String:
		for _, p := range pos {
			v.strs = append(v.strs, src.strs[p-base])
		}
	}
	if src.nulls != nil || v.nulls != nil {
		v.ensureNulls()
		if src.nulls != nil {
			tail := v.nulls[v.Len()-len(pos):]
			for i, p := range pos {
				tail[i] = src.nulls[p-base]
			}
		}
	}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := &Vector{typ: v.typ}
	out.ints = append([]int64(nil), v.ints...)
	out.flts = append([]float64(nil), v.flts...)
	out.bools = append([]bool(nil), v.bools...)
	out.strs = append([]string(nil), v.strs...)
	if v.nulls != nil {
		out.nulls = append([]bool(nil), v.nulls...)
	}
	return out
}

// CloneColumns deep-copies a column set — what a checkpoint capture
// takes of live state before the consistency gate is released.
func CloneColumns(cols []*Vector) []*Vector {
	out := make([]*Vector, len(cols))
	for i, c := range cols {
		out[i] = c.Clone()
	}
	return out
}

// Truncate shortens the vector to n elements.
func (v *Vector) Truncate(n int) {
	switch v.typ {
	case Int64, Timestamp:
		v.ints = v.ints[:n]
	case Float64:
		v.flts = v.flts[:n]
	case Bool:
		v.bools = v.bools[:n]
	case String:
		v.strs = v.strs[:n]
	}
	if v.nulls != nil {
		v.nulls = v.nulls[:n]
	}
}

// DropPrefix removes the first n elements in place. Baskets use it to
// compact away consumed tuples.
func (v *Vector) DropPrefix(n int) {
	switch v.typ {
	case Int64, Timestamp:
		v.ints = append(v.ints[:0], v.ints[n:]...)
	case Float64:
		v.flts = append(v.flts[:0], v.flts[n:]...)
	case Bool:
		v.bools = append(v.bools[:0], v.bools[n:]...)
	case String:
		v.strs = append(v.strs[:0], v.strs[n:]...)
	}
	if v.nulls != nil {
		v.nulls = append(v.nulls[:0], v.nulls[n:]...)
	}
}

// String renders a short preview for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d]{", v.typ, v.Len())
	n := v.Len()
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Get(i).String())
	}
	if v.Len() > 8 {
		b.WriteString(", …")
	}
	b.WriteString("}")
	return b.String()
}
