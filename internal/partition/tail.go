package partition

import (
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Tail is the shard-pipeline→merge handoff: an SPSC queue of result
// batches that replaces the per-shard output basket on the partitioned
// path. The shard factory is the producer (factories never fire
// concurrently with themselves, so production is serialized by the
// scheduler's claim machine); the merge transition is the consumer. A
// producer-side append is one queue push plus one atomic add — no basket
// lock, no timestamp-vector allocation on the merge's critical path.
//
// Tail implements catalog.Source so SHOW BASKETS and ad-hoc SELECTs keep
// working against q_out#i names, and the factory output-sink interface so
// shard factories can write it like a basket.
type Tail struct {
	name   string
	schema *catalog.Schema // result schema + implicit ts column
	clock  metrics.Clock

	q       *ring.Queue[tailItem]
	pending atomic.Int64 // buffered tuples
	drained atomic.Int64 // cumulative tuples handed to the merge

	// wake is the merge transition's Handle.Wake, attached after the merge
	// is registered; atomic so early firings (before attachment) are safe.
	wake atomic.Pointer[func()]

	// cmu serializes the queue's consumer role: merge drains, snapshots,
	// and checkpoint capture may come from different goroutines.
	cmu sync.Mutex
}

// tailItem is one produced result batch.
type tailItem struct {
	cols []*vector.Vector // result columns, no ts
	ts   int64            // production timestamp
}

// NewTail creates a tail for result batches of the given schema (without
// the implicit ts column) whose lock-free ring holds capacity batches.
func NewTail(name string, schema *catalog.Schema, capacity int, clock metrics.Clock) *Tail {
	if clock == nil {
		clock = metrics.WallClock{}
	}
	return &Tail{
		name:   name,
		schema: schema.WithTimestamp(),
		clock:  clock,
		q:      ring.NewQueue[tailItem](capacity),
	}
}

// Name returns the tail's catalog name.
func (t *Tail) Name() string { return t.name }

// Schema implements catalog.Source; it includes the implicit ts column.
func (t *Tail) Schema() *catalog.Schema { return t.schema }

// SetWake attaches the consumer's wake hook, called after every push.
func (t *Tail) SetWake(fn func()) {
	if fn == nil {
		t.wake.Store(nil)
		return
	}
	t.wake.Store(&fn)
}

// Pending returns the number of buffered tuples (lock-free).
func (t *Tail) Pending() int { return int(t.pending.Load()) }

// Drained returns the cumulative number of tuples consumed by the merge.
func (t *Tail) Drained() int64 { return t.drained.Load() }

// Batches returns the number of buffered batches.
func (t *Tail) Batches() int { return t.q.Len() }

// AppendRelation accepts one result batch from the producing shard
// factory (the factory output-sink interface). A trailing ts column, if
// present, is dropped — the tail stamps its own production time.
func (t *Tail) AppendRelation(r *storage.Relation) error {
	cols := r.Cols
	if len(cols) == t.schema.Len() {
		cols = cols[:len(cols)-1]
	}
	if len(cols) == 0 || cols[0].Len() == 0 {
		return nil
	}
	t.push(tailItem{cols: cols, ts: t.clock.Now()})
	if w := t.wake.Load(); w != nil {
		(*w)()
	}
	return nil
}

func (t *Tail) push(it tailItem) {
	t.q.Push(it)
	t.pending.Add(int64(it.cols[0].Len()))
}

// peekAll visits every buffered batch oldest-first without consuming;
// the caller holds cmu. It returns the number of batches visited, which
// a subsequent discard(n) consumes.
func (t *Tail) peekAll(fn func(it tailItem)) int {
	n := 0
	t.q.Do(func(it tailItem) {
		fn(it)
		n++
	})
	return n
}

// discard consumes the n oldest batches (previously visited by peekAll);
// the caller holds cmu.
func (t *Tail) discard(n int) {
	rows, i := int64(0), 0
	t.q.Do(func(it tailItem) {
		if i < n {
			rows += int64(it.cols[0].Len())
		}
		i++
	})
	t.q.PopN(n)
	t.pending.Add(-rows)
	t.drained.Add(rows)
}

// Snapshot implements catalog.Source: a chunked view of the buffered
// batches, with the implicit ts column materialized per batch.
func (t *Tail) Snapshot() bat.View {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	var view bat.View
	t.peekAll(func(it tailItem) {
		n := it.cols[0].Len()
		ts := vector.NewWithCap(vector.Timestamp, n)
		for i := 0; i < n; i++ {
			ts.AppendInt(it.ts)
		}
		full := append(append([]*vector.Vector(nil), it.cols...), ts)
		view.Chunks = append(view.Chunks, bat.Chunk{Cols: full})
	})
	return view
}

// TailImage is a serializable snapshot of a tail's buffered batches —
// part of the checkpoint cut.
type TailImage struct {
	Batches [][]*vector.Vector
	TS      []int64
}

// CaptureState deep-copies the buffered batches. The engine holds its
// consistency gate while calling, so no producer is mid-push.
func (t *Tail) CaptureState() TailImage {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	var img TailImage
	t.peekAll(func(it tailItem) {
		img.Batches = append(img.Batches, vector.CloneColumns(it.cols))
		img.TS = append(img.TS, it.ts)
	})
	return img
}

// RestoreState loads a captured image into an empty tail.
func (t *Tail) RestoreState(img TailImage) error {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	for i, cols := range img.Batches {
		t.push(tailItem{cols: cols, ts: img.TS[i]})
	}
	return nil
}
