package bat

import (
	"sort"
	"testing"
	"testing/quick"
)

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
