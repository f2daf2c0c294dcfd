// Package storage provides the in-memory column tables of the kernel and
// the Relation value that flows between operators. Tables are
// append-optimized: inserts extend every column; snapshots are cheap
// read-only views; deletions (used by baskets to drop consumed tuples)
// compact in place.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/vector"
)

// Relation is a transient result set: a schema plus aligned columns. It is
// what the executor produces and what emitters consume.
type Relation struct {
	Schema *catalog.Schema
	Cols   []*vector.Vector
}

// NewRelation allocates an empty relation with the given schema.
func NewRelation(s *catalog.Schema) *Relation {
	cols := make([]*vector.Vector, s.Len())
	for i, c := range s.Columns {
		cols[i] = vector.New(c.Type)
	}
	return &Relation{Schema: s, Cols: cols}
}

// NumRows returns the row count.
func (r *Relation) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// Row materializes row i as values.
func (r *Relation) Row(i int) []vector.Value {
	out := make([]vector.Value, len(r.Cols))
	for c, col := range r.Cols {
		out[c] = col.Get(i)
	}
	return out
}

// AppendRow appends one row of values.
func (r *Relation) AppendRow(row []vector.Value) {
	for c, col := range r.Cols {
		col.AppendValue(row[c])
	}
}

// AppendRelation appends all rows of other (schemas must be compatible).
func (r *Relation) AppendRelation(other *Relation) {
	for c, col := range r.Cols {
		col.AppendVector(other.Cols[c])
	}
}

// Take materializes the rows at the given positions into a new relation.
func (r *Relation) Take(pos []int) *Relation {
	out := &Relation{Schema: r.Schema, Cols: make([]*vector.Vector, len(r.Cols))}
	for i, col := range r.Cols {
		out.Cols[i] = col.Take(pos)
	}
	return out
}

// String renders the relation as an aligned text table (for debugging and
// the CLI).
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Schema.Names(), "\t"))
	b.WriteByte('\n')
	for i := 0; i < r.NumRows(); i++ {
		for c := range r.Cols {
			if c > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(r.Cols[c].Get(i).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DefaultChunkTarget is the sealing threshold: the active tail chunk is
// frozen once it reaches this many rows. It bounds both the granularity
// of O(1) consumption (DropPrefix releases whole sealed chunks) and the
// work Remove redoes when a chunk is partially rewritten.
const DefaultChunkTarget = 4096

// sealedChunk is one frozen run of rows. Its vectors are never mutated
// after sealing, so snapshots may share them without copying.
type sealedChunk struct {
	cols []*vector.Vector
	n    int
}

// Table is a named, concurrency-safe column table implementing
// catalog.Source. Storage is chunked: appends fill an active tail chunk
// that is sealed (frozen) at chunkTarget rows; consumption releases whole
// sealed chunks in O(1) and rewrites only the chunks it actually touches.
// Snapshots share chunk references, so they cost no tuple copying and
// stay valid across later appends and consumption.
type Table struct {
	name   string
	schema *catalog.Schema

	mu     sync.RWMutex
	sealed []sealedChunk
	// tail is the active chunk: append-only vectors holding tailRows rows.
	// Snapshots window it (appends past the window's capped length never
	// disturb published views).
	tail     []*vector.Vector
	tailRows int
	// rows is the total live count across sealed chunks and the tail.
	rows int
	// dropped counts tuples consumed from the front so far; it is the OID
	// of the oldest live tuple, keeping the table's OID sequence stable
	// across consumption (see bat.View).
	dropped     int64
	chunkTarget int
	// version counts mutations (appends, removals); cached derivations —
	// a streaming join's table-side hash — invalidate when it moves.
	version uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *catalog.Schema) *Table {
	t := &Table{name: name, schema: schema, chunkTarget: DefaultChunkTarget}
	t.tail = t.freshCols()
	return t
}

func (t *Table) freshCols() []*vector.Vector {
	cols := make([]*vector.Vector, t.schema.Len())
	for i, c := range t.schema.Columns {
		cols[i] = vector.New(c.Type)
	}
	return cols
}

// SetChunkTarget overrides the sealing threshold (tests and tuning). A
// tail already at or past the new threshold is sealed immediately so
// later appends never see negative headroom.
func (t *Table) SetChunkTarget(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.chunkTarget = n
	if t.tailRows >= n {
		t.seal()
	}
	t.mu.Unlock()
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema implements catalog.Source.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// NumRows returns the current row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Hseq returns the OID of the first live tuple (tuples dropped so far).
func (t *Table) Hseq() bat.OID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return bat.OID(t.dropped)
}

// Version returns the table's mutation counter: it moves on every
// append or removal, so cached derivations (a streaming join's
// table-side hash index) can detect change cheaply.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Stats reports the physical layout: resident chunk count (sealed plus a
// non-empty tail), live rows, and the cumulative count of tuples consumed
// from the front over the table's lifetime.
func (t *Table) Stats() (chunks, rows int, dropped int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chunks = len(t.sealed)
	if t.tailRows > 0 {
		chunks++
	}
	return chunks, t.rows, t.dropped
}

// seal freezes the tail as a sealed chunk and starts a fresh one. The
// caller must hold mu.
func (t *Table) seal() {
	if t.tailRows == 0 {
		return
	}
	t.sealed = append(t.sealed, sealedChunk{cols: t.tail, n: t.tailRows})
	t.tail = t.freshCols()
	t.tailRows = 0
}

// AppendRow appends one row. The row must match the schema.
func (t *Table) AppendRow(row []vector.Value) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: %s expects %d values, got %d", t.name, t.schema.Len(), len(row))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, col := range t.tail {
		col.AppendValue(row[i])
	}
	t.tailRows++
	t.rows++
	t.version++
	if t.tailRows >= t.chunkTarget {
		t.seal()
	}
	return nil
}

// AppendBatch appends whole column batches; all must have equal length
// and match the schema's types. Large batches are split so no chunk
// exceeds the sealing threshold.
func (t *Table) AppendBatch(cols []*vector.Vector) error {
	n, err := t.schema.CheckBatch(cols)
	if err != nil {
		return fmt.Errorf("storage: %s: %w", t.name, err)
	}
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	for off := 0; off < n; {
		take := t.chunkTarget - t.tailRows
		if take > n-off {
			take = n - off
		}
		if off == 0 && take == n {
			for i, col := range t.tail {
				col.AppendVector(cols[i])
			}
		} else {
			for i, col := range t.tail {
				col.AppendVector(cols[i].Window(off, off+take))
			}
		}
		t.tailRows += take
		t.rows += take
		off += take
		if t.tailRows >= t.chunkTarget {
			t.seal()
		}
	}
	return nil
}

// AppendRelation appends all rows of a relation (types must match).
func (t *Table) AppendRelation(r *Relation) error { return t.AppendBatch(r.Cols) }

// Snapshot implements catalog.Source: a chunked view sharing the sealed
// chunks by reference. Only the tail is windowed (its vectors keep
// growing); sealed chunks cost nothing per snapshot. The view always
// carries at least one chunk so scans see the column layout even when the
// table is empty.
func (t *Table) Snapshot() bat.View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chunks := make([]bat.Chunk, 0, len(t.sealed)+1)
	base := bat.OID(t.dropped)
	for _, c := range t.sealed {
		chunks = append(chunks, bat.Chunk{Base: base, Cols: c.cols})
		base += bat.OID(c.n)
	}
	tcols := make([]*vector.Vector, len(t.tail))
	for i, col := range t.tail {
		tcols[i] = col.Window(0, t.tailRows)
	}
	chunks = append(chunks, bat.Chunk{Base: base, Cols: tcols})
	return bat.View{Hseq: bat.OID(t.dropped), Chunks: chunks}
}

// DropPrefix removes the first n tuples (consumed stream data). Whole
// sealed chunks are released in O(1); only the boundary chunk is trimmed
// (by re-windowing — still no copying). Snapshots taken before the call
// stay valid: they hold their own chunk references.
func (t *Table) DropPrefix(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	if n > t.rows {
		n = t.rows
	}
	rem := n
	for len(t.sealed) > 0 && rem >= t.sealed[0].n {
		rem -= t.sealed[0].n
		t.sealed[0] = sealedChunk{} // release the vectors
		t.sealed = t.sealed[1:]
	}
	if rem > 0 && len(t.sealed) > 0 {
		c := t.sealed[0]
		w := make([]*vector.Vector, len(c.cols))
		for i, col := range c.cols {
			w[i] = col.Window(rem, c.n)
		}
		t.sealed[0] = sealedChunk{cols: w, n: c.n - rem}
		rem = 0
	}
	if rem > 0 {
		// The drop reaches into the tail: freeze the surviving suffix as a
		// windowed sealed chunk and start a fresh tail. No tuple copying.
		if rem < t.tailRows {
			w := make([]*vector.Vector, len(t.tail))
			for i, col := range t.tail {
				w[i] = col.Window(rem, t.tailRows)
			}
			t.sealed = append(t.sealed, sealedChunk{cols: w, n: t.tailRows - rem})
		}
		t.tail = t.freshCols()
		t.tailRows = 0
	}
	t.rows -= n
	t.dropped += int64(n)
}

// takeCols gathers the rows at the given global positions (shifted down
// by base) out of every column into fresh vectors.
func takeCols(cols []*vector.Vector, pos []int, base int) []*vector.Vector {
	out := make([]*vector.Vector, len(cols))
	for i, col := range cols {
		out[i] = vector.NewWithCap(col.Type(), len(pos))
		out[i].AppendTake(col, pos, base)
	}
	return out
}

// Remove deletes the rows at the given sorted positions — the basket
// expression's "remove everything I referenced" side effect. Chunks with
// no dropped rows are shared untouched and chunks losing rows are
// rewritten in isolation, so prior snapshots stay valid and the cost is
// proportional to the drop list and the chunks it lands in — not the
// table depth.
func (t *Table) Remove(pos []int) {
	if len(pos) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	n := t.rows
	newSealed := t.sealed[:0:0]
	i, base := 0, 0
	for _, c := range t.sealed {
		j := i
		for j < len(pos) && pos[j] < base+c.n {
			j++
		}
		switch dropped := j - i; {
		case dropped == 0:
			newSealed = append(newSealed, c)
		case dropped < c.n:
			keep := bat.Complement(base, base+c.n, pos[i:j])
			newSealed = append(newSealed, sealedChunk{cols: takeCols(c.cols, keep, base), n: len(keep)})
		}
		i, base = j, base+c.n
	}
	t.sealed = newSealed
	if td := len(pos) - i; td > 0 {
		keep := bat.Complement(base, base+t.tailRows, pos[i:])
		t.tail = takeCols(t.tail, keep, base)
		t.tailRows = len(keep)
	}
	t.rows = n - len(pos)
	t.dropped += int64(len(pos))
}

// Truncate removes all rows, advancing the OID base as if every tuple had
// been consumed. Prior snapshots stay valid.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	t.sealed = nil
	t.tail = t.freshCols()
	t.tailRows = 0
	t.dropped += int64(t.rows)
	t.rows = 0
}
