package bat

import "repro/internal/vector"

// Chunk is one immutable run of aligned column segments: position i of
// every column belongs to the tuple with OID Base+i. Chunks are the unit
// of basket consumption — a fully consumed chunk is released whole, and
// rewriting one chunk never disturbs its neighbours.
type Chunk struct {
	Base OID
	Cols []*vector.Vector
}

// Len returns the number of tuples in the chunk.
func (c Chunk) Len() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return c.Cols[0].Len()
}

// View is a chunked, read-only snapshot of a columnar source: the list of
// chunks alive at snapshot time. Chunk references are shared with the
// source, so taking a view copies no tuple data; the source keeps views
// valid by never mutating a published chunk in place. Hseq is the OID of
// the view's first tuple.
type View struct {
	Hseq   OID
	Chunks []Chunk
}

// ViewOf wraps flat columns as a single-chunk view with head OID 0 — the
// bridge for callers that already hold materialized columns (window
// contents, test fixtures).
func ViewOf(cols ...*vector.Vector) View {
	return View{Chunks: []Chunk{{Cols: cols}}}
}

// NumRows returns the total tuple count across chunks.
func (v View) NumRows() int {
	n := 0
	for _, c := range v.Chunks {
		n += c.Len()
	}
	return n
}

// NumCols returns the column count (0 for a chunkless view).
func (v View) NumCols() int {
	if len(v.Chunks) == 0 {
		return 0
	}
	return len(v.Chunks[0].Cols)
}

// Get returns the value of column col at view-relative row.
func (v View) Get(col, row int) vector.Value {
	for _, c := range v.Chunks {
		n := c.Len()
		if row < n {
			return c.Cols[col].Get(row)
		}
		row -= n
	}
	return vector.Value{}
}

// Slice returns the sub-view of rows [lo, hi). Fully covered chunks are
// shared; boundary chunks are windowed (no copying). The sub-view's Hseq
// advances by lo.
func (v View) Slice(lo, hi int) View {
	out := View{Hseq: v.Hseq + OID(lo)}
	base := 0
	for _, c := range v.Chunks {
		n := c.Len()
		a, b := lo-base, hi-base
		base += n
		if a < 0 {
			a = 0
		}
		if b > n {
			b = n
		}
		if a >= b {
			continue
		}
		if a == 0 && b == n {
			out.Chunks = append(out.Chunks, c)
			continue
		}
		w := make([]*vector.Vector, len(c.Cols))
		for i, col := range c.Cols {
			w[i] = col.Window(a, b)
		}
		out.Chunks = append(out.Chunks, Chunk{Base: c.Base + OID(a), Cols: w})
	}
	// Preserve the column layout even when the slice is empty, so scans
	// over an empty view still see correctly typed columns.
	if len(out.Chunks) == 0 && len(v.Chunks) > 0 {
		c := v.Chunks[0]
		w := make([]*vector.Vector, len(c.Cols))
		for i, col := range c.Cols {
			w[i] = col.Window(0, 0)
		}
		out.Chunks = append(out.Chunks, Chunk{Base: out.Hseq, Cols: w})
	}
	return out
}

// Column materializes one column as a flat vector. A single-chunk view
// returns the chunk's vector directly (zero copy); multi-chunk views
// concatenate.
func (v View) Column(i int) *vector.Vector {
	if len(v.Chunks) == 1 {
		return v.Chunks[0].Cols[i]
	}
	out := vector.NewWithCap(v.colType(i), v.NumRows())
	for _, c := range v.Chunks {
		out.AppendVector(c.Cols[i])
	}
	return out
}

// Columns materializes every column (see Column for the sharing rule).
func (v View) Columns() []*vector.Vector {
	out := make([]*vector.Vector, v.NumCols())
	for i := range out {
		out[i] = v.Column(i)
	}
	return out
}

// CloneColumns materializes every column as a fresh deep copy, sharing
// nothing with the view — for callers that buffer the batch beyond the
// snapshot's lifetime (window runners).
func (v View) CloneColumns() []*vector.Vector {
	out := make([]*vector.Vector, v.NumCols())
	for i := range out {
		col := vector.NewWithCap(v.colType(i), v.NumRows())
		for _, c := range v.Chunks {
			col.AppendVector(c.Cols[i])
		}
		out[i] = col
	}
	return out
}

// TakeColumn gathers column col at the given sorted view-relative
// positions — Take over a chunked column, visiting only the chunks the
// candidate list touches.
func (v View) TakeColumn(col int, pos Candidates) *vector.Vector {
	out := vector.NewWithCap(v.colType(col), len(pos))
	i, base := 0, 0
	for _, c := range v.Chunks {
		if i >= len(pos) {
			break
		}
		n := c.Len()
		if pos[i] >= base+n {
			base += n
			continue
		}
		j := i
		for j < len(pos) && pos[j] < base+n {
			j++
		}
		out.AppendTake(c.Cols[col], pos[i:j], base)
		i, base = j, base+n
	}
	return out
}

func (v View) colType(i int) vector.Type {
	if len(v.Chunks) == 0 {
		return vector.Unknown
	}
	return v.Chunks[0].Cols[i].Type()
}

// Complement returns the positions in [lo, hi) absent from the sorted
// list drop (whose entries share the same coordinate space), without
// materializing the range.
func Complement(lo, hi int, drop Candidates) Candidates {
	capHint := hi - lo - len(drop)
	if capHint < 0 {
		capHint = 0
	}
	out := make(Candidates, 0, capHint)
	j := 0
	for p := lo; p < hi; p++ {
		if j < len(drop) && drop[j] == p {
			j++
			continue
		}
		out = append(out, p)
	}
	return out
}
