package bat

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

func intsBAT(vals ...int64) *BAT {
	b := New(vector.Int64)
	for _, v := range vals {
		b.AppendValue(vector.NewInt(v))
	}
	return b
}

func TestAppendAndOIDs(t *testing.T) {
	b := intsBAT(10, 20, 30)
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.OIDAt(0) != 0 || b.OIDAt(2) != 2 {
		t.Errorf("OIDs wrong: %d %d", b.OIDAt(0), b.OIDAt(2))
	}
	if b.Get(1).I != 20 {
		t.Errorf("Get(1) = %v", b.Get(1))
	}
}

func TestDropPrefixPreservesOIDs(t *testing.T) {
	b := intsBAT(10, 20, 30, 40)
	b.DropPrefix(2)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Hseq() != 2 {
		t.Errorf("Hseq = %d, want 2", b.Hseq())
	}
	// OID 2 still maps to value 30.
	if p := b.Pos(2); p != 0 || b.Get(p).I != 30 {
		t.Errorf("OID 2 -> pos %d val %v", p, b.Get(0))
	}
}

func TestWindowPreservesOIDs(t *testing.T) {
	b := intsBAT(1, 2, 3, 4, 5)
	w := b.Window(2, 4)
	if w.Len() != 2 || w.Hseq() != 2 {
		t.Fatalf("window: len=%d hseq=%d", w.Len(), w.Hseq())
	}
	if w.Get(0).I != 3 {
		t.Errorf("window Get(0) = %v", w.Get(0))
	}
}

func TestTake(t *testing.T) {
	b := intsBAT(5, 6, 7, 8)
	got := b.Take([]int{3, 0})
	if got.Len() != 2 || got.Get(0).I != 8 || got.Get(1).I != 5 {
		t.Errorf("Take: %v", got)
	}
	if got.Hseq() != 0 {
		t.Errorf("Take should reset head, got %d", got.Hseq())
	}
}

func TestCloneIndependence(t *testing.T) {
	b := intsBAT(1)
	c := b.Clone()
	c.AppendValue(vector.NewInt(2))
	if b.Len() != 1 {
		t.Error("Clone shares tail")
	}
}

func TestAppendVector(t *testing.T) {
	b := intsBAT(1)
	b.AppendVector(vector.FromInts([]int64{2, 3}))
	if b.Len() != 3 || b.Get(2).I != 3 {
		t.Errorf("AppendVector: %v", b)
	}
}

func TestAll(t *testing.T) {
	c := All(4)
	if len(c) != 4 || c[0] != 0 || c[3] != 3 {
		t.Errorf("All(4) = %v", c)
	}
	if len(All(0)) != 0 {
		t.Error("All(0) should be empty")
	}
}

func TestIntersect(t *testing.T) {
	got := Intersect(Candidates{1, 3, 5, 7}, Candidates{3, 4, 5, 6})
	want := Candidates{3, 5}
	if len(got) != len(want) {
		t.Fatalf("Intersect = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Intersect = %v, want %v", got, want)
		}
	}
	if len(Intersect(Candidates{1}, Candidates{})) != 0 {
		t.Error("Intersect with empty should be empty")
	}
}

func TestUnion(t *testing.T) {
	got := Union(Candidates{1, 3}, Candidates{2, 3, 4})
	want := Candidates{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Union = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Union = %v, want %v", got, want)
		}
	}
}

func normalize(raw []uint8) Candidates {
	seen := map[int]bool{}
	for _, r := range raw {
		seen[int(r)] = true
	}
	out := make(Candidates, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Property: set-algebra identities over candidate lists.
func TestPropCandidateSetAlgebra(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a, b := normalize(ra), normalize(rb)
		inter := Intersect(a, b)
		uni := Union(a, b)
		// |A∪B| = |A| + |B| - |A∩B|
		if len(uni) != len(a)+len(b)-len(inter) {
			return false
		}
		// Union is sorted and deduplicated.
		for i := 1; i < len(uni); i++ {
			if uni[i] <= uni[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DropPrefix keeps OID→value mapping stable.
func TestPropDropPrefixOIDStable(t *testing.T) {
	f := func(vals []int64, nRaw uint8) bool {
		b := New(vector.Int64)
		b.AppendVector(vector.FromInts(append([]int64(nil), vals...)))
		n := int(nRaw)
		if n > b.Len() {
			n = b.Len()
		}
		// Record OID → value for survivors.
		type pair struct {
			o OID
			v int64
		}
		var want []pair
		for i := n; i < b.Len(); i++ {
			want = append(want, pair{b.OIDAt(i), b.Get(i).I})
		}
		b.DropPrefix(n)
		for _, p := range want {
			pos := b.Pos(p.o)
			if pos < 0 || b.Get(pos).I != p.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
