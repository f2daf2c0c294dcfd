package vector

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomColumn draws a column of type t: n rows, nulls ∈ {0: no mask,
// 1: every row NULL, 2: about 10 % NULL}, values biased toward what a
// text format would mangle.
func randomColumn(rng *rand.Rand, t Type, n, nulls int) *Vector {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 40, -(1 << 40)}
	flts := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", ",", "a,b", "line\nbreak", "\x00", "nul\x00inside", "héllo wörld", "NULL", " padded "}
	v := New(t)
	for i := 0; i < n; i++ {
		if nulls == 1 || nulls == 2 && rng.Intn(10) == 0 {
			v.AppendNull()
			continue
		}
		pick := rng.Intn(2) == 0
		switch t {
		case Int64, Timestamp:
			if pick {
				v.AppendInt(ints[rng.Intn(len(ints))])
			} else {
				v.AppendInt(rng.Int63() - rng.Int63())
			}
		case Float64:
			if pick {
				v.AppendFloat(flts[rng.Intn(len(flts))])
			} else {
				v.AppendFloat(rng.NormFloat64() * 1e6)
			}
		case Bool:
			v.AppendBool(pick)
		case String:
			if pick {
				v.AppendString(strs[rng.Intn(len(strs))])
			} else {
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				v.AppendString(string(b))
			}
		}
	}
	return v
}

// sameColumn compares what the engine can observe of two columns; floats
// by bit pattern, so NaN and -0 count.
func sameColumn(a, b *Vector) bool {
	if a.Type() != b.Type() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.Get(i), b.Get(i)
		if x.Null != y.Null || x.I != y.I || x.B != y.B || x.S != y.S ||
			math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

func forEachRandomColumn(fn func(v *Vector)) {
	rng := rand.New(rand.NewSource(17))
	for _, t := range []Type{Int64, Float64, Bool, String, Timestamp} {
		for _, n := range []int{0, 1, 7, 300} {
			for nulls := 0; nulls < 3; nulls++ {
				for rep := 0; rep < 4; rep++ {
					fn(randomColumn(rng, t, n, nulls))
				}
			}
		}
	}
}

// TestColumnCodecRoundTrip: every column the engine can hold survives
// AppendColumn → DecodeColumn, and MarshalBinary → UnmarshalBinary (the
// path a gob-encoded checkpoint image takes), unchanged; the codec
// leaves the bytes before and after a column alone.
func TestColumnCodecRoundTrip(t *testing.T) {
	forEachRandomColumn(func(v *Vector) {
		enc := AppendColumn([]byte("prefix"), v)
		if !bytes.HasPrefix(enc, []byte("prefix")) {
			t.Fatalf("%v: AppendColumn rewrote dst", v)
		}
		got, rest, err := DecodeColumn(append(enc[len("prefix"):], "tail"...))
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if string(rest) != "tail" {
			t.Fatalf("%v: decode consumed up to %q, want the column only", v, rest)
		}
		if !sameColumn(got, v) {
			t.Fatalf("round trip of %v = %v", v, got)
		}

		bin, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back := New(Unknown)
		if err := back.UnmarshalBinary(bin); err != nil {
			t.Fatalf("%v: unmarshal: %v", v, err)
		}
		if !sameColumn(back, v) {
			t.Fatalf("marshal round trip of %v = %v", v, back)
		}
		if err := back.UnmarshalBinary(append(bin, 0)); !errors.Is(err, ErrCorruptColumn) {
			t.Fatalf("%v: trailing byte after a marshalled column: err = %v", v, err)
		}
		// Decoded columns must behave as live ones: appendable, with the
		// mask in step.
		got.AppendNull()
		if got.Len() != v.Len()+1 || !got.IsNull(v.Len()) {
			t.Fatalf("%v: decoded column does not take appends", v)
		}
	})
}

// TestDecodeColumnRejectsTruncation: every proper prefix of a valid
// encoding is an error, not a shorter column.
func TestDecodeColumnRejectsTruncation(t *testing.T) {
	forEachRandomColumn(func(v *Vector) {
		if v.Len() > 7 {
			return
		}
		enc := AppendColumn(nil, v)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeColumn(enc[:cut]); !errors.Is(err, ErrCorruptColumn) {
				t.Fatalf("%v cut at %d of %d: err = %v, want ErrCorruptColumn", v, cut, len(enc), err)
			}
		}
	})
}

func TestAppendColumnDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := []*Vector{
		randomColumn(rng, Int64, 512, 2),
		randomColumn(rng, Float64, 512, 0),
		randomColumn(rng, String, 512, 2),
	}
	var buf []byte
	for _, c := range cols {
		buf = AppendColumn(buf, c)
	}
	if n := testing.AllocsPerRun(20, func() {
		b := buf[:0]
		for _, c := range cols {
			b = AppendColumn(b, c)
		}
	}); n != 0 {
		t.Fatalf("AppendColumn into a sized buffer allocates %.0f times", n)
	}
}

// FuzzDecodeColumn: whatever the bytes, DecodeColumn returns a column or
// ErrCorruptColumn — no panic, and nothing allocated that the input does
// not back (a count that outruns the input is rejected before make). An
// accepted column is one AppendColumn can spell again.
func FuzzDecodeColumn(f *testing.F) {
	forEachRandomColumn(func(v *Vector) {
		if v.Len() <= 7 {
			enc := AppendColumn(nil, v)
			f.Add(enc)
			f.Add(enc[:len(enc)*2/3])
		}
	})
	f.Add([]byte{byte(Int64), 0xff, 0xff, 0xff, 0xff})                                                  // count far past the input
	f.Add([]byte{byte(String), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // string length past the input
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, p []byte) {
		v, rest, err := DecodeColumn(p)
		if err != nil {
			if !errors.Is(err, ErrCorruptColumn) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(rest) > len(p) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(p))
		}
		again, tail, err := DecodeColumn(AppendColumn(nil, v))
		if err != nil || len(tail) != 0 || !sameColumn(again, v) {
			t.Fatalf("accepted column does not survive re-encoding: %v", err)
		}
	})
}
