package adapters

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/vector"
)

// The reference for the text codec is the row path as it stood before the
// text path went columnar (PR 17): vector.Parse, ParseTuple, Value.String
// and FormatTuple of that commit, kept here verbatim. What the wire
// accepts, rejects and prints must not move — the benchmark counts result
// bytes and rejected lines.

func oracleParse(t vector.Type, s string) (vector.Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") {
		return vector.NullValue(t), nil
	}
	switch t {
	case vector.Int64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return vector.Value{}, fmt.Errorf("vector: parse %q as BIGINT: %w", s, err)
		}
		return vector.NewInt(i), nil
	case vector.Timestamp:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return vector.Value{}, fmt.Errorf("vector: parse %q as TIMESTAMP: %w", s, err)
		}
		return vector.NewTimestamp(i), nil
	case vector.Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return vector.Value{}, fmt.Errorf("vector: parse %q as DOUBLE: %w", s, err)
		}
		return vector.NewFloat(f), nil
	case vector.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return vector.Value{}, fmt.Errorf("vector: parse %q as BOOLEAN: %w", s, err)
		}
		return vector.NewBool(b), nil
	case vector.String:
		return vector.NewString(s), nil
	default:
		return vector.Value{}, fmt.Errorf("vector: parse into unknown type")
	}
}

func oracleParseTuple(schema *catalog.Schema, line string) ([]vector.Value, error) {
	fields := strings.Split(line, ",")
	if len(fields) != schema.Len() {
		return nil, fmt.Errorf("adapters: tuple has %d fields, schema %s needs %d",
			len(fields), schema, schema.Len())
	}
	out := make([]vector.Value, len(fields))
	for i, f := range fields {
		v, err := oracleParse(schema.Columns[i].Type, f)
		if err != nil {
			return nil, fmt.Errorf("adapters: field %d (%s): %w", i, schema.Columns[i].Name, err)
		}
		out[i] = v
	}
	return out, nil
}

func oracleString(v vector.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case vector.Int64, vector.Timestamp:
		return strconv.FormatInt(v.I, 10)
	case vector.Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case vector.Bool:
		if v.B {
			return "true"
		}
		return "false"
	case vector.String:
		return v.S
	default:
		return "?"
	}
}

func oracleFormatTuple(row []vector.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = oracleString(v)
	}
	return strings.Join(parts, ",")
}

// sameValue is bitwise equality: NaN equals NaN, 0 differs from -0.
func sameValue(a, b vector.Value) bool {
	return a.Typ == b.Typ && a.Null == b.Null && a.I == b.I && a.B == b.B && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

var fuzzTypes = map[byte]vector.Type{
	'i': vector.Int64, 'f': vector.Float64, 'b': vector.Bool, 's': vector.String, 't': vector.Timestamp,
}

// fuzzSchema reads one column per byte of spec: i, f, b, s, t name the
// five types, any other byte picks one of them.
func fuzzSchema(spec string) *catalog.Schema {
	if len(spec) > 8 {
		spec = spec[:8]
	}
	cols := make([]catalog.Column, len(spec))
	for i := range cols {
		typ, ok := fuzzTypes[spec[i]]
		if !ok {
			typ = fuzzTypes["ifbst"[spec[i]%5]]
		}
		cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Type: typ}
	}
	return catalog.NewSchema(cols...)
}

// builders returns one column per schema column, each already holding a
// value and a NULL, so a rollback has something to damage.
func builders(schema *catalog.Schema) []*vector.Vector {
	cols := make([]*vector.Vector, schema.Len())
	for i, c := range schema.Columns {
		cols[i] = vector.New(c.Type)
		switch c.Type {
		case vector.Int64, vector.Timestamp:
			cols[i].AppendInt(41)
		case vector.Float64:
			cols[i].AppendFloat(4.5)
		case vector.Bool:
			cols[i].AppendBool(true)
		case vector.String:
			cols[i].AppendString("kept")
		}
		cols[i].AppendNull()
	}
	return cols
}

// FuzzAppendTuple: for any schema and line, AppendTuple and ParseTuple
// accept exactly what the reference accepts, with the same values, NULLs
// and error text, and a rejected line leaves every column as it was.
func FuzzAppendTuple(f *testing.F) {
	for _, seed := range []struct{ spec, line string }{
		{"if", "42,3.5"},
		{"if", "1"}, {"if", "1,2,3"}, {"if", ""}, {"", ""}, {"i", ","},
		{"ii", " 7 ,\t8\t"}, {"ii", "+7,-7"}, {"ii", "-,1"}, {"ii", "1,-"}, {"ii", "--1,1"}, {"i", "1_000"},
		{"ii", "999999999999999999,-999999999999999999"},
		{"ii", "1000000000000000000,-1000000000000000000"},
		{"ii", "9223372036854775807,-9223372036854775808"},
		{"ii", "9223372036854775808,1"}, {"ii", "1,-9223372036854775809"},
		{"ii", "12345678901234567890,1"}, {"i", "000000000000000000000000000007"},
		{"ffff", "1e3,0x1p-2,inf,NaN"}, {"ff", "-Inf,+0.5"}, {"ff", "-0,1e400"}, {"f", "1.5x"}, {"f", "."},
		{"bbbb", "true,F,1,0"}, {"b", "yes"}, {"b", "TRUE"},
		{"ifbst", "NULL,nUlL,,  ,null"}, {"s", "nullx"}, {"i", "nul"},
		{"is", "1,two\r\n"}, {"is", "1,two\r"}, {"si", "x,1\n"},
		{"s", "   "}, {"ss", "  a b  , c "}, {"s", "caf\xc3\xa9"}, {"s", "\xff\xfe"},
		{"tt", "1700000000000000000,x"}, {"it", "1,2"},
		{"ifs", "1,abc,kept?"}, {"sfi", "a,1.5,zz"},
	} {
		f.Add(seed.spec, []byte(seed.line))
	}
	f.Fuzz(func(t *testing.T, spec string, line []byte) {
		schema := fuzzSchema(spec)
		want, wantErr := oracleParseTuple(schema, string(line))

		row, err := ParseTuple(schema, string(line))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseTuple(%s, %q): err %v, reference %v", schema, line, err, wantErr)
		}
		for i := range want {
			if !sameValue(row[i], want[i]) {
				t.Fatalf("ParseTuple(%s, %q): field %d = %#v, reference %#v", schema, line, i, row[i], want[i])
			}
		}

		cols, before := builders(schema), builders(schema)
		err = AppendTuple(cols, schema, line)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("AppendTuple(%s, %q): err %v, reference %v", schema, line, err, wantErr)
		}
		for i, c := range cols {
			grown := 0
			if err == nil {
				grown = 1
				if got := c.Get(c.Len() - 1); !sameValue(got, want[i]) {
					t.Fatalf("AppendTuple(%s, %q): column %d got %#v, reference %#v", schema, line, i, got, want[i])
				}
			}
			if c.Len() != before[i].Len()+grown {
				t.Fatalf("AppendTuple(%s, %q), err %v: column %d has %d rows, had %d", schema, line, err, i, c.Len(), before[i].Len())
			}
			for r := 0; r < before[i].Len(); r++ {
				if !sameValue(c.Get(r), before[i].Get(r)) {
					t.Fatalf("AppendTuple(%s, %q): column %d row %d changed to %#v", schema, line, i, r, c.Get(r))
				}
			}
		}
	})
}

// TestAppendRowMatchesFormatTuple: the column printer, the row printer and
// the reference print every value of every type to the same bytes.
func TestAppendRowMatchesFormatTuple(t *testing.T) {
	schema := fuzzSchema("ifbst")
	cols := make([]*vector.Vector, schema.Len())
	for i, c := range schema.Columns {
		cols[i] = vector.New(c.Type)
	}
	ints := []int64{0, -1, 7, math.MaxInt64, math.MinInt64, 1_000_000_000_000}
	x, y := 0.1, 0.2 // summed at run time: the constant 0.1+0.2 is exact
	floats := []float64{0, math.Copysign(0, -1), x + y, 1e21, 1e20, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -2.2250738585072014e-308, 0.5001, 123456789.125}
	strs := []string{"", "a", " padded ", "NULL", "with \"quotes\"", "café", "\xff"}
	rows := len(floats)
	for r := 0; r < rows; r++ {
		cols[0].AppendInt(ints[r%len(ints)])
		cols[1].AppendFloat(floats[r])
		cols[2].AppendBool(r%2 == 0)
		cols[3].AppendString(strs[r%len(strs)])
		cols[4].AppendInt(ints[(r+1)%len(ints)])
	}
	for _, c := range cols { // a row of NULLs
		c.AppendNull()
	}
	for i := range cols { // and for each column a row where only it is NULL
		for j, c := range cols {
			if i == j {
				c.AppendNull()
			} else {
				c.AppendValue(c.Get(i))
			}
		}
	}
	for r := 0; r < cols[0].Len(); r++ {
		row := make([]vector.Value, len(cols))
		for i, c := range cols {
			row[i] = c.Get(r)
		}
		want := oracleFormatTuple(row) + "\n"
		if got := FormatTuple(row) + "\n"; got != want {
			t.Errorf("row %d: FormatTuple = %q, reference %q", r, got, want)
		}
		if got := string(AppendRow([]byte("earlier\n"), cols, r)); got != "earlier\n"+want {
			t.Errorf("row %d: AppendRow = %q, reference %q", r, got, "earlier\n"+want)
		}
	}
}

// TestParsedStringsDoNotAliasTheReadBuffer: AppendTuple parses through a
// view of the line's bytes; what it stores must be a copy, because the
// caller's next read overwrites them.
func TestParsedStringsDoNotAliasTheReadBuffer(t *testing.T) {
	schema := fuzzSchema("sis")
	cols := []*vector.Vector{vector.New(vector.String), vector.New(vector.Int64), vector.New(vector.String)}
	line := []byte(" hello ,7,world")
	if err := AppendTuple(cols, schema, line); err != nil {
		t.Fatal(err)
	}
	for i := range line {
		line[i] = 'Z'
	}
	if got := cols[0].Strings()[0]; got != "hello" {
		t.Errorf("first VARCHAR = %q after the buffer was overwritten, want %q", got, "hello")
	}
	if got := cols[2].Strings()[0]; got != "world" {
		t.Errorf("last VARCHAR = %q after the buffer was overwritten, want %q", got, "world")
	}
}
