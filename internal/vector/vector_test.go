package vector

import (
	"testing"
	"testing/quick"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": Int64, "INTEGER": Int64, "BigInt": Int64,
		"float": Float64, "DOUBLE": Float64, "real": Float64,
		"bool": Bool, "BOOLEAN": Bool,
		"varchar": String, "TEXT": String, "string": String,
		"timestamp": Timestamp, "DATETIME": Timestamp,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		Int64: "BIGINT", Float64: "DOUBLE", Bool: "BOOLEAN",
		String: "VARCHAR", Timestamp: "TIMESTAMP", Unknown: "UNKNOWN",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		NewInt(-42), NewFloat(3.5), NewBool(true), NewBool(false),
		NewString("hello"), NewTimestamp(1234567890),
	}
	for _, v := range vals {
		got, err := Parse(v.Typ, v.String())
		if err != nil {
			t.Fatalf("Parse(%v, %q): %v", v.Typ, v.String(), err)
		}
		if Compare(got, v) != 0 {
			t.Errorf("round trip %v -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestParseNull(t *testing.T) {
	for _, s := range []string{"", "NULL", "null", "  "} {
		v, err := Parse(Int64, s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !v.Null {
			t.Errorf("Parse(%q) = %v, want NULL", s, v)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(Int64, "abc"); err == nil {
		t.Error("Parse int abc should fail")
	}
	if _, err := Parse(Float64, "x.y"); err == nil {
		t.Error("Parse float x.y should fail")
	}
	if _, err := Parse(Bool, "maybe"); err == nil {
		t.Error("Parse bool maybe should fail")
	}
	if _, err := Parse(Timestamp, "noon"); err == nil {
		t.Error("Parse timestamp noon should fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NullValue(Int64), NewInt(0), -1},
		{NewInt(0), NullValue(Int64), 1},
		{NullValue(Int64), NullValue(Int64), 0},
		{NewTimestamp(5), NewTimestamp(9), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAppendAndGet(t *testing.T) {
	v := New(Int64)
	v.AppendInt(10)
	v.AppendNull()
	v.AppendInt(30)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if got := v.Get(0); got.I != 10 || got.Null {
		t.Errorf("Get(0) = %v", got)
	}
	if !v.Get(1).Null {
		t.Error("Get(1) should be NULL")
	}
	if !v.HasNulls() {
		t.Error("HasNulls should be true")
	}
	if got := v.Get(2); got.I != 30 {
		t.Errorf("Get(2) = %v", got)
	}
}

func TestAppendValueAllTypes(t *testing.T) {
	for _, tc := range []struct {
		typ Type
		val Value
	}{
		{Int64, NewInt(7)},
		{Float64, NewFloat(2.25)},
		{Bool, NewBool(true)},
		{String, NewString("x")},
		{Timestamp, NewTimestamp(99)},
	} {
		v := New(tc.typ)
		v.AppendValue(tc.val)
		v.AppendValue(NullValue(tc.typ))
		if v.Len() != 2 {
			t.Fatalf("%v: Len = %d", tc.typ, v.Len())
		}
		if Compare(v.Get(0), tc.val) != 0 {
			t.Errorf("%v: Get(0) = %v, want %v", tc.typ, v.Get(0), tc.val)
		}
		if !v.Get(1).Null {
			t.Errorf("%v: Get(1) should be NULL", tc.typ)
		}
	}
}

func TestSet(t *testing.T) {
	v := FromInts([]int64{1, 2, 3})
	v.Set(1, NewInt(20))
	if v.Get(1).I != 20 {
		t.Errorf("Set int failed: %v", v.Get(1))
	}
	v.Set(2, NullValue(Int64))
	if !v.Get(2).Null {
		t.Error("Set NULL failed")
	}
	v.Set(2, NewInt(5))
	if v.Get(2).Null || v.Get(2).I != 5 {
		t.Error("Set over NULL failed")
	}
}

func TestWindow(t *testing.T) {
	v := FromInts([]int64{0, 1, 2, 3, 4, 5})
	w := v.Window(2, 5)
	if w.Len() != 3 {
		t.Fatalf("window len = %d", w.Len())
	}
	for i, want := range []int64{2, 3, 4} {
		if got := w.Get(i).I; got != want {
			t.Errorf("w[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestTake(t *testing.T) {
	v := FromStrings([]string{"a", "b", "c", "d"})
	got := v.Take([]int{3, 1, 1})
	want := []string{"d", "b", "b"}
	for i := range want {
		if got.Get(i).S != want[i] {
			t.Errorf("Take[%d] = %q, want %q", i, got.Get(i).S, want[i])
		}
	}
}

func TestTakeWithNulls(t *testing.T) {
	v := New(Float64)
	v.AppendFloat(1.5)
	v.AppendNull()
	v.AppendFloat(3.5)
	got := v.Take([]int{1, 2})
	if !got.Get(0).Null {
		t.Error("Take should preserve NULL")
	}
	if got.Get(1).F != 3.5 {
		t.Errorf("Take[1] = %v", got.Get(1))
	}
}

func TestAppendVector(t *testing.T) {
	a := FromInts([]int64{1, 2})
	b := New(Int64)
	b.AppendInt(3)
	b.AppendNull()
	a.AppendVector(b)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.Get(2).I != 3 || !a.Get(3).Null {
		t.Errorf("append vector wrong: %v %v", a.Get(2), a.Get(3))
	}
	// Appending a mask-less vector to one with a mask reads the argument
	// only: it may be shared with a reader on another goroutine.
	c := FromInts([]int64{4, 5})
	a.AppendVector(c)
	if c.nulls != nil {
		t.Error("AppendVector wrote its argument's NULL mask")
	}
	if a.Len() != 6 || a.Get(4).Null || a.Get(5).I != 5 || !a.Get(3).Null {
		t.Errorf("append after a NULL: %v", a)
	}
}

func TestDropPrefix(t *testing.T) {
	v := FromInts([]int64{1, 2, 3, 4, 5})
	v.DropPrefix(2)
	if v.Len() != 3 || v.Get(0).I != 3 {
		t.Errorf("DropPrefix: %v", v)
	}
	v.DropPrefix(3)
	if v.Len() != 0 {
		t.Errorf("DropPrefix to empty: %v", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromInts([]int64{1, 2, 3})
	c := v.Clone()
	c.Set(0, NewInt(99))
	if v.Get(0).I != 1 {
		t.Error("Clone shares storage")
	}
}

func TestConst(t *testing.T) {
	v := Const(NewFloat(2.5), 4)
	if v.Len() != 4 {
		t.Fatalf("Const len = %d", v.Len())
	}
	for i := 0; i < 4; i++ {
		if v.Get(i).F != 2.5 {
			t.Errorf("Const[%d] = %v", i, v.Get(i))
		}
	}
}

func TestTruncate(t *testing.T) {
	v := FromBools([]bool{true, false, true})
	v.Truncate(1)
	if v.Len() != 1 || !v.Get(0).B {
		t.Errorf("Truncate: %v", v)
	}
}

func TestStringPreview(t *testing.T) {
	v := FromInts([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := v.String()
	if s == "" {
		t.Error("String() empty")
	}
}

// Property: DropPrefix(n) is equivalent to rebuilding from the suffix.
func TestPropDropPrefixEqualsSuffix(t *testing.T) {
	f := func(vals []int64, nRaw uint8) bool {
		v := FromInts(append([]int64(nil), vals...))
		n := int(nRaw)
		if n > v.Len() {
			n = v.Len()
		}
		want := append([]int64(nil), vals[n:]...)
		v.DropPrefix(n)
		if v.Len() != len(want) {
			return false
		}
		for i := range want {
			if v.Get(i).I != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Take then Get matches direct Get.
func TestPropTakeMatchesGet(t *testing.T) {
	f := func(vals []float64, idxRaw []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		v := FromFloats(vals)
		pos := make([]int, len(idxRaw))
		for i, r := range idxRaw {
			pos[i] = int(r) % len(vals)
		}
		got := v.Take(pos)
		for i, p := range pos {
			if got.Get(i).F != vals[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric.
func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
