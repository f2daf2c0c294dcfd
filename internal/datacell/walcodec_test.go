package datacell

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/partition"
	"repro/internal/vector"
	"repro/internal/wal"
	"repro/internal/window"
)

func mustEncode(t testing.TB, rec *walRecord) []byte {
	t.Helper()
	p, err := encodeRecord(nil, rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return p
}

func sameRecord(a, b *walRecord) bool {
	if a.Kind != b.Kind || a.Stmt != b.Stmt || a.Stream != b.Stream || a.Query != b.Query ||
		a.Count != b.Count || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i, c := range a.Cols {
		d := b.Cols[i]
		if c.Type() != d.Type() || c.Len() != d.Len() {
			return false
		}
		for r := 0; r < c.Len(); r++ {
			x, y := c.Get(r), d.Get(r) // floats by bit pattern: NaN is a value here
			if x.Null != y.Null || x.I != y.I || x.B != y.B || x.S != y.S ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		}
	}
	return true
}

// goldenCols is one column of every type, with the values a text wire
// would mangle: extremes, infinities, an embedded comma, newline and NUL,
// multi-byte runes, and a NULL.
func goldenCols() []*vector.Vector {
	k := vector.FromInts([]int64{0, -1, 1 << 40, math.MinInt64, math.MaxInt64})
	f := vector.FromFloats([]float64{0.5, math.Inf(-1), math.Inf(1), 0, 1e-300})
	b := vector.FromBools([]bool{true, false, true, true, false})
	s := vector.New(vector.String)
	for _, x := range []string{"", "a,b\nc", "\x00z", "héllo"} {
		s.AppendString(x)
	}
	s.AppendNull()
	ts := vector.FromTimestamps([]int64{1, 2, 3, 4, 1700000000000000000})
	return []*vector.Vector{k, f, b, s, ts}
}

// goldenIngestRecord is what the commit before the codec moved into
// internal/vector (its appendIngestRecord) wrote for
// {stream "st", goldenCols()}.
const goldenIngestRecord = "" +
	"0149020000007374050001050000000001808080808040ffffffffffffffffff01feffffffffffffffff010000000000" +
	"0000000000000000000000020000000005000000000000000000e03f000000000000f0ff000000000000f07f00000000" +
	"0000000059f3f8c21f6ea501000000000000000000000000030000000000000000050000000100010100000000000000" +
	"000004000000000000000000000000050000000000000005000000612c620a6302000000007a0600000068c3a96c6c6f" +
	"000000000500000000000000010505000000020406088080d0e2c6bfce972f00000000000000000000000000000000"

// TestIngestRecordGolden pins the walFormatV1 'I' layout byte for byte:
// a log written by any earlier commit must replay, so these bytes may
// only change together with the format byte.
func TestIngestRecordGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenIngestRecord)
	if err != nil {
		t.Fatal(err)
	}
	rec := &walRecord{Kind: recIngest, Stream: "st", Cols: goldenCols()}
	if got := mustEncode(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("'I' record bytes changed:\n got %x\nwant %x", got, want)
	}
	got, err := decodeRecord(want)
	if err != nil {
		t.Fatalf("decoding the golden record: %v", err)
	}
	if !sameRecord(got, rec) {
		t.Fatalf("golden record decoded to %+v", got)
	}
}

func TestWALCodecRoundTrip(t *testing.T) {
	recs := []*walRecord{
		{Kind: recStmt, Stmt: "CREATE BASKET s (a INT)"},
		{Kind: recStmt, Stmt: ""},
		{Kind: recFrontier, Query: "q1", Count: 1<<40 + 7},
		{Kind: recIngest, Stream: "s", Cols: nil},
		{Kind: recIngest, Stream: "s", Cols: goldenCols()},
	}
	for i, rec := range recs {
		got, err := decodeRecord(mustEncode(t, rec))
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !sameRecord(got, rec) {
			t.Errorf("record %d: round trip = %+v, want %+v", i, got, rec)
		}
	}
}

// rawColumn spells a column section by section with no regard for
// whether the sections agree — the malformed inputs below need columns
// no live vector could produce.
func rawColumn(typ byte, ints []int64, flts []float64, bools []bool, strs []string, nulls []bool) []byte {
	putBools := func(b []byte, vs []bool) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
		for _, v := range vs {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		return b
	}
	b := []byte{typ}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ints)))
	for _, v := range ints {
		b = binary.AppendVarint(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(flts)))
	for _, v := range flts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = putBools(b, bools)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(strs)))
	for _, s := range strs {
		b = putStr(b, s)
	}
	return putBools(b, nulls)
}

// Every truncation of a valid record, every stray trailing byte, a bad
// format or kind byte, and every column a vector could not have been
// encoded from must surface as ErrCorruptWAL — never as a panic or a
// silently wrong record.
func TestWALCodecRejectsMalformed(t *testing.T) {
	p := mustEncode(t, &walRecord{Kind: recIngest, Stream: "s", Cols: goldenCols()})
	for cut := 0; cut < len(p); cut++ {
		if _, err := decodeRecord(p[:cut]); !errors.Is(err, wal.ErrCorruptWAL) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptWAL", cut, err)
		}
	}
	oneCol := func(col []byte) []byte {
		b := putStr([]byte{walFormatV1, recIngest}, "s")
		b = binary.LittleEndian.AppendUint16(b, 1)
		return append(b, col...)
	}
	if _, err := decodeRecord(oneCol(rawColumn(byte(vector.Int64), []int64{1, 2}, nil, nil, nil, []bool{false, true}))); err != nil {
		t.Fatalf("hand-spelled valid column rejected: %v", err)
	}
	pastBuffer := oneCol(rawColumn(byte(vector.String), nil, nil, nil, []string{"abc"}, nil))
	binary.LittleEndian.PutUint32(pastBuffer[len(pastBuffer)-11:], 1<<30) // the string's length prefix
	hugeCount := oneCol(rawColumn(byte(vector.Int64), []int64{1}, nil, nil, nil, nil))
	binary.LittleEndian.PutUint32(hugeCount[len(hugeCount)-21:], math.MaxUint32) // the int section's count
	bad := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), p...)
		mutate(b)
		return b
	}
	for name, in := range map[string][]byte{
		"trailing byte":           append(append([]byte(nil), p...), 0),
		"bad format byte":         bad(func(b []byte) { b[0] = 0x7f }),
		"bad kind byte":           bad(func(b []byte) { b[1] = 'Z' }),
		"type byte 0":             oneCol(rawColumn(0, nil, nil, nil, nil, nil)),
		"type byte 6":             oneCol(rawColumn(6, []int64{1}, nil, nil, nil, nil)),
		"two payloads set":        oneCol(rawColumn(byte(vector.Int64), []int64{1}, []float64{1}, nil, nil, nil)),
		"payload of wrong type":   oneCol(rawColumn(byte(vector.Float64), []int64{1}, nil, nil, nil, nil)),
		"short NULL mask":         oneCol(rawColumn(byte(vector.Int64), []int64{1, 2}, nil, nil, nil, []bool{true})),
		"long NULL mask":          oneCol(rawColumn(byte(vector.String), nil, nil, nil, []string{"a"}, []bool{false, true})),
		"NULL mask, no rows":      oneCol(rawColumn(byte(vector.Bool), nil, nil, nil, nil, []bool{true})),
		"length past buffer":      pastBuffer,
		"count past buffer":       hugeCount,
		"more columns than bytes": binary.LittleEndian.AppendUint16(putStr([]byte{walFormatV1, recIngest}, "s"), 60000),
	} {
		_, err := decodeRecord(in)
		if !errors.Is(err, wal.ErrCorruptWAL) {
			t.Errorf("%s: err = %v, want ErrCorruptWAL", name, err)
		}
	}
	// A column fault keeps the codec's own type too.
	_, err := decodeRecord(oneCol(rawColumn(0, nil, nil, nil, nil, nil)))
	if !errors.Is(err, vector.ErrCorruptColumn) {
		t.Errorf("bad type byte: err = %v, want it to wrap vector.ErrCorruptColumn", err)
	}
}

func TestWALCodecRejectsUnknownKindOnEncode(t *testing.T) {
	if _, err := encodeRecord(nil, &walRecord{Kind: 'Z'}); err == nil {
		t.Fatal("encoding unknown kind succeeded")
	}
}

// FuzzDecodeRecord: whatever the bytes, decodeRecord returns a record or
// ErrCorruptWAL — no panic, no allocation the input does not back — and
// a record it accepts survives re-encoding.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []*walRecord{
		{Kind: recStmt, Stmt: "CREATE BASKET s (a INT)"},
		{Kind: recFrontier, Query: "q", Count: 42},
		{Kind: recIngest, Stream: "s"},
		{Kind: recIngest, Stream: "st", Cols: goldenCols()},
	} {
		p := mustEncode(f, rec)
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	f.Add([]byte{walFormatV1, recIngest, 0, 0, 0, 0, 0xff, 0xff})
	f.Add(mustEncode(f, &walRecord{Kind: recIngest, Stream: "n", Cols: []*vector.Vector{vector.FromFloats([]float64{math.NaN()})}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeRecord(p)
		if err != nil {
			if !errors.Is(err, wal.ErrCorruptWAL) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := decodeRecord(mustEncode(t, rec))
		if err != nil || !sameRecord(again, rec) {
			t.Fatalf("accepted record does not survive re-encoding: %v", err)
		}
	})
}

// The ingest path encodes into a reused buffer and must not allocate.
func BenchmarkEncodeIngestRecord(b *testing.B) {
	k := vector.NewWithCap(vector.Int64, 4096)
	v := vector.NewWithCap(vector.Int64, 4096)
	for i := 0; i < 4096; i++ {
		k.AppendInt(int64(i * 7 % 4096))
		v.AppendInt(int64(i % 1000))
	}
	cols := []*vector.Vector{k, v}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := encodeRecord(buf[:0], &walRecord{Kind: recIngest, Stream: "d", Cols: cols})
		if err != nil {
			b.Fatal(err)
		}
		buf = p
	}
}

// TestImageColumnsRoundTrip: a checkpoint image carries columns in every
// container gob has to walk — slices, slices of structs, maps, behind
// pointers — and each must come back through the vector codec unchanged,
// empty and NULL-bearing columns included.
func TestImageColumnsRoundTrip(t *testing.T) {
	empty := []*vector.Vector{vector.New(vector.Int64), vector.New(vector.String)}
	allNull := vector.New(vector.Float64)
	sparse := vector.New(vector.Timestamp)
	for i := 0; i < 50; i++ {
		allNull.AppendNull()
		if i%10 == 3 {
			sparse.AppendNull()
		} else {
			sparse.AppendInt(int64(i) * 1e9)
		}
	}
	nulls := []*vector.Vector{allNull, sparse}
	basketOf := func(cols []*vector.Vector) basketImage {
		return basketImage{Cols: cols, Marks: map[string]int64{"r": 2}}
	}
	golden, emptyB := basketOf(goldenCols()), basketOf(empty)
	img := &ckptImage{
		WALSeq:  7,
		DDL:     []string{"CREATE BASKET s (a INT)"},
		Tables:  map[string][]*vector.Vector{"t": goldenCols(), "e": empty},
		Streams: map[string]ckptStream{"s": {Ingested: 5, Primary: golden, Shards: []basketImage{emptyB, basketOf(nulls)}}},
		Queries: map[string]ckptQuery{"q": {
			Delivered: 3,
			Baskets:   []basketImage{golden, basketOf(nulls)},
			Facts: []*factory.State{{
				Window: &window.State{Buf: goldenCols()},
				Join:   &exec.JoinState{Symmetric: true, Left: &exec.JoinSideState{Cols: nulls}, Right: &exec.JoinSideState{}},
			}},
			Merge: &partition.MergeState{Pending: map[int64][]*vector.Vector{100: goldenCols(), 200: nulls}},
		}},
	}
	payload, err := encodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	same := func(where string, got, want []*vector.Vector) {
		t.Helper()
		if !sameRecord(&walRecord{Cols: got}, &walRecord{Cols: want}) {
			t.Errorf("%s: columns = %v, want %v", where, got, want)
		}
	}
	same("table t", got.Tables["t"], goldenCols())
	same("table e", got.Tables["e"], empty)
	same("primary", got.Streams["s"].Primary.Cols, goldenCols())
	same("shard 0", got.Streams["s"].Shards[0].Cols, empty)
	same("shard 1", got.Streams["s"].Shards[1].Cols, nulls)
	q := got.Queries["q"]
	same("output basket", q.Baskets[0].Cols, goldenCols())
	same("lane sink", q.Baskets[1].Cols, nulls)
	same("window buffer", q.Facts[0].Window.Buf, goldenCols())
	same("join side", q.Facts[0].Join.Left.Cols, nulls)
	same("merge pending 100", q.Merge.Pending[100], goldenCols())
	same("merge pending 200", q.Merge.Pending[200], nulls)

	// An image whose column bytes are damaged fails to decode; it is not
	// loaded with a wrong column.
	at := bytes.Index(payload, vector.AppendColumn(nil, goldenCols()[3]))
	if at < 0 {
		t.Fatal("the image does not hold the string column's codec bytes")
	}
	payload[at] = 0x7f // the column's type byte
	if _, err := decodeImage(payload); err == nil {
		t.Fatal("image with a corrupt column decoded")
	}
}
