// Package bat implements Binary Association Tables, the storage unit of
// the columnar kernel. A BAT pairs a virtual dense head (the tuple key
// sequence) with a tail vector holding one attribute's values, exactly as
// in MonetDB: all attributes of relational tuple t sit at the same position
// in their respective BATs, so tuple reconstruction is positional.
package bat

import (
	"fmt"

	"repro/internal/vector"
)

// OID identifies a tuple. Head columns are virtual: the OID of position i
// in a BAT with head sequence base hseq is hseq+i, never materialized.
type OID int64

// BAT is a two-column table with a virtual dense head.
type BAT struct {
	hseq OID
	tail *vector.Vector
}

// New returns an empty BAT with head sequence starting at 0.
func New(t vector.Type) *BAT { return &BAT{tail: vector.New(t)} }

// Hseq returns the first OID of the (virtual) head column.
func (b *BAT) Hseq() OID { return b.hseq }

// Tail returns the tail vector. Callers must not append to it directly;
// use the BAT's Append methods so the head sequence stays consistent.
func (b *BAT) Tail() *vector.Vector { return b.tail }

// Type returns the tail type.
func (b *BAT) Type() vector.Type { return b.tail.Type() }

// Len returns the number of tuples.
func (b *BAT) Len() int { return b.tail.Len() }

// OIDAt returns the OID of position i.
func (b *BAT) OIDAt(i int) OID { return b.hseq + OID(i) }

// Pos translates an OID back into a position, or -1 if out of range.
func (b *BAT) Pos(o OID) int {
	p := int(o - b.hseq)
	if p < 0 || p >= b.Len() {
		return -1
	}
	return p
}

// Get returns the tail value at position i.
func (b *BAT) Get(i int) vector.Value { return b.tail.Get(i) }

// AppendValue appends one value, assigning it the next OID.
func (b *BAT) AppendValue(v vector.Value) { b.tail.AppendValue(v) }

// AppendVector bulk-appends a run of values.
func (b *BAT) AppendVector(v *vector.Vector) { b.tail.AppendVector(v) }

// Window returns a view BAT over positions [lo, hi); its head sequence is
// shifted so OIDs are preserved.
func (b *BAT) Window(lo, hi int) *BAT {
	return &BAT{hseq: b.hseq + OID(lo), tail: b.tail.Window(lo, hi)}
}

// Take materializes the tuples at the given positions into a fresh BAT
// with a new dense head starting at 0 (MonetDB's leftfetchjoin).
func (b *BAT) Take(pos []int) *BAT {
	return &BAT{tail: b.tail.Take(pos)}
}

// Clone deep-copies the BAT.
func (b *BAT) Clone() *BAT {
	return &BAT{hseq: b.hseq, tail: b.tail.Clone()}
}

// DropPrefix removes the first n tuples and advances the head sequence,
// preserving the OIDs of the survivors. Baskets use this to discard
// consumed tuples.
func (b *BAT) DropPrefix(n int) {
	b.tail.DropPrefix(n)
	b.hseq += OID(n)
}

// String renders a short preview.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT@%d %s", b.hseq, b.tail)
}

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
