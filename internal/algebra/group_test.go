package algebra

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/vector"
)

// fuzzDoubles are the DOUBLE keys FuzzGroup draws from: -0 beside +0 and
// NaNs with several payloads beside ordinary values.
var fuzzDoubles = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001),
	math.Float64frombits(0xfff8_0000_0000_0000), 1.5, -1.5, math.Inf(1),
}

// fuzzInts mixes a narrow range with extremes, so that both the slot
// array and the hash table group INT keys.
var fuzzInts = []int64{-3, -2, -1, 0, 1, 2, 3, 4, math.MinInt64, math.MaxInt64, 1 << 40, -1 << 40}

var fuzzStrings = []string{"", "a", "b", "a|b", "N"}

// decodeKeys turns fuzz bytes into 1–2 key columns of INT, DOUBLE,
// VARCHAR or BOOLEAN (a byte per value, 1 in 8 NULL; at most 128 values)
// and a candidate list: nil, or the rows whose first byte has its top
// bit clear.
func decodeKeys(p []byte) ([]*vector.Vector, bat.Candidates) {
	if len(p) < 2 {
		return nil, nil
	}
	if len(p) > 129 {
		p = p[:129]
	}
	types := []vector.Type{vector.Int64, vector.Float64, vector.String, vector.Bool}
	keys := make([]*vector.Vector, 1+int(p[0]&1))
	for j := range keys {
		keys[j] = vector.New(types[int(p[0]>>(1+2*j))&3])
	}
	subset := p[0]&0x80 != 0
	p = p[1:]
	var cands bat.Candidates
	if subset {
		cands = bat.Candidates{}
	}
	for row := 0; len(p) >= len(keys); row++ {
		if subset && p[0]&0x80 == 0 {
			cands = append(cands, row)
		}
		for j, k := range keys {
			b := p[j] & 0x7f
			switch {
			case b%8 == 0:
				k.AppendNull()
			case k.Type() == vector.Int64:
				k.AppendInt(fuzzInts[b/8%12])
			case k.Type() == vector.Float64:
				k.AppendFloat(fuzzDoubles[b/8%8])
			case k.Type() == vector.String:
				k.AppendString(fuzzStrings[b/8%5])
			default:
				k.AppendBool(b&8 != 0)
			}
		}
		p = p[len(keys):]
	}
	return keys, cands
}

// canonicalKey spells a key value so that two values share a spelling
// exactly when the grouping-key rule puts them in one group.
func canonicalKey(v vector.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Typ == vector.Float64 && math.IsNaN(v.F):
		return "NaN"
	case v.Typ == vector.Float64 && v.F == 0:
		return "0"
	case v.Typ == vector.String:
		return strconv.Quote(v.S)
	}
	return v.String()
}

// FuzzGroup checks Group against a reference grouping by canonical key
// strings: the same group ids, in first-seen order, and the same
// representatives.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{0x02, 0x01, 0x09, 0x00, 0x11, 0x19, 0x21, 0x29, 0x00, 0x09})       // DOUBLE: +0, -0, NULL, NaNs, 1.5
	f.Add([]byte{0x89, 0x01, 0x09, 0x81, 0x01, 0x01, 0x01, 0x00, 0x11, 0x00, 0x19}) // INT × DOUBLE over a subset
	f.Add([]byte{0x1d, 0x09, 0x09, 0x19, 0x00, 0x21, 0x01, 0x00, 0x01, 0x09, 0x09}) // VARCHAR × BOOLEAN
	f.Fuzz(func(t *testing.T, p []byte) {
		keys, cands := decodeKeys(p)
		if keys == nil {
			return
		}
		gids, ngroups, reps := Group(keys, cands)
		pos := cands
		if pos == nil {
			pos = bat.All(keys[0].Len())
		}
		ids := map[string]int{}
		var wantReps []int
		for i, row := range pos {
			parts := make([]string, len(keys))
			for j, k := range keys {
				parts[j] = canonicalKey(k.Get(row))
			}
			key := strings.Join(parts, "|")
			g, ok := ids[key]
			if !ok {
				g = len(ids)
				ids[key] = g
				wantReps = append(wantReps, row)
			}
			if gids[i] != g {
				t.Fatalf("row %d (%s): group %d, want %d", row, key, gids[i], g)
			}
		}
		if ngroups != len(ids) || len(reps) != len(wantReps) {
			t.Fatalf("%d groups and %d representatives, want %d", ngroups, len(reps), len(ids))
		}
		for g := range reps {
			if reps[g] != wantReps[g] {
				t.Fatalf("representatives %v, want %v", reps, wantReps)
			}
		}
	})
}
