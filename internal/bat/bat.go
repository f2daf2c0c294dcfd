// Package bat holds the positional vocabulary of the columnar kernel, as
// in MonetDB's Binary Association Tables: a virtual dense head (the tuple
// key sequence, OID) over tail vectors that keep all attributes of
// relational tuple t at the same position, so tuple reconstruction is
// positional. View is a chunked multi-column snapshot with such a head;
// Candidates are the position lists selections produce.
package bat

// OID identifies a tuple. Head columns are virtual: the OID of position i
// in a view with head sequence base Hseq is Hseq+i, never materialized.
type OID int64

// Candidates is a sorted list of positions produced by selection operators
// and consumed by projections — MonetDB's candidate lists.
type Candidates []int

// All returns the candidate list selecting every position in [0, n).
func All(n int) Candidates {
	c := make(Candidates, n)
	for i := range c {
		c[i] = i
	}
	return c
}

// Intersect returns the positions present in both sorted lists.
func Intersect(a, b Candidates) Candidates {
	out := make(Candidates, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Union returns the positions present in either sorted list.
func Union(a, b Candidates) Candidates {
	out := make(Candidates, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
