// Package basket implements the DataCell's central data structure (§2.2):
// a stream-holding, main-memory column table. Tuples are appended on
// arrival (with an implicit timestamp column), wait to be processed, and
// are removed once every relevant continuous query has consumed them.
//
// A basket supports both consumption disciplines of the paper:
//
//   - Owned (separate-baskets strategy): a single factory owns the basket
//     and removes tuples directly (DropPrefix / Remove for predicate
//     windows).
//   - Shared (shared-baskets strategy): multiple factories register as
//     readers; each advances a private watermark after processing, and the
//     basket compacts the prefix all readers have seen.
package basket

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Feed is an out-of-lock staging area for arriving tuples — the engine's
// ingest fan-out stages shard slices on a per-shard list (see
// partition.Inbox) instead of taking every shard basket's lock. The basket
// admits staged batches lazily: every code path that enters the basket
// lock first drains the feed, so feed content is indistinguishable from
// appended content to readers, factories, and checkpoint capture.
//
// Drain is only called with the basket lock held, making the basket the
// feed's single consumer.
type Feed interface {
	// Pending returns the number of staged tuples (cheap; lock-free).
	Pending() int
	// Drain emits staged batches oldest-first. emit receives the user
	// columns and the arrival timestamp to stamp them with. A non-nil
	// error aborts the drain, leaving the remainder staged.
	Drain(emit func(cols []*vector.Vector, ts int64) error) error
}

// listener is one append subscriber (a downstream transition's wake hook).
type listener struct {
	id uint64
	fn func()
}

// Basket is a concurrency-safe stream buffer. It implements
// catalog.Source so plans can scan it like any table.
type Basket struct {
	name   string
	schema *catalog.Schema // user schema + implicit ts column
	clock  metrics.Clock

	mu      sync.Mutex
	table   *storage.Table
	readers map[string]bat.OID // shared-mode watermarks: next unseen OID
	// listeners are invoked (outside the lock) after every append — the
	// downstream transitions' wake hooks. Copy-on-write so notify() is a
	// single atomic load on the hot path.
	listeners atomic.Pointer[[]listener]
	lisMu     sync.Mutex
	lisSeq    atomic.Uint64
	// feed, when set, stages arriving tuples outside the lock; feedEmit is
	// the pre-bound admission callback (avoids a closure per drain).
	feed     Feed
	feedEmit func(cols []*vector.Vector, ts int64) error
	// capacity, when positive, bounds the basket: appends beyond it shed
	// the oldest tuples (the paper's load-shedding requirement). shed
	// counts the victims.
	capacity int
	shed     int64
}

// New creates an empty basket. The given schema must NOT include the
// timestamp column; it is appended automatically, per the paper.
func New(name string, schema *catalog.Schema, clock metrics.Clock) *Basket {
	if clock == nil {
		clock = metrics.WallClock{}
	}
	full := schema.WithTimestamp()
	return &Basket{
		name:    name,
		schema:  full,
		clock:   clock,
		table:   storage.NewTable(name, full),
		readers: map[string]bat.OID{},
	}
}

// Name returns the basket name.
func (b *Basket) Name() string { return b.name }

// Schema implements catalog.Source. It includes the implicit ts column.
func (b *Basket) Schema() *catalog.Schema { return b.schema }

// UserWidth returns the number of user columns (excluding ts).
func (b *Basket) UserWidth() int { return b.schema.Len() - 1 }

// Subscribe registers an append listener and returns its id for
// Unsubscribe. Listeners run outside the basket lock after every append;
// the engine subscribes each consuming transition's Handle.Wake here —
// the transition→input-place edge map of the event-driven scheduler.
func (b *Basket) Subscribe(fn func()) uint64 {
	b.lisMu.Lock()
	defer b.lisMu.Unlock()
	id := b.lisSeq.Add(1)
	var cur []listener
	if p := b.listeners.Load(); p != nil {
		cur = *p
	}
	next := make([]listener, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = listener{id: id, fn: fn}
	b.listeners.Store(&next)
	return id
}

// Unsubscribe removes a listener registered with Subscribe.
func (b *Basket) Unsubscribe(id uint64) {
	b.lisMu.Lock()
	defer b.lisMu.Unlock()
	p := b.listeners.Load()
	if p == nil {
		return
	}
	cur := *p
	next := make([]listener, 0, len(cur))
	for _, l := range cur {
		if l.id != id {
			next = append(next, l)
		}
	}
	if len(next) == 0 {
		b.listeners.Store(nil)
		return
	}
	b.listeners.Store(&next)
}

// Listeners returns the number of append listeners: the transitions that
// consume the basket (one lock-free load).
func (b *Basket) Listeners() int {
	if p := b.listeners.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// notify invokes every append listener (outside the basket lock).
func (b *Basket) notify() {
	if p := b.listeners.Load(); p != nil {
		for _, l := range *p {
			l.fn()
		}
	}
}

// SetFeed attaches a staging feed (nil detaches). Baskets admit staged
// batches on every lock entry, so the feed's content is visible to all
// readers without the producer ever taking the basket lock.
func (b *Basket) SetFeed(f Feed) {
	b.mu.Lock()
	b.feed = f
	if f != nil {
		b.feedEmit = b.stampedAppendLocked
	}
	b.mu.Unlock()
}

// admitLocked drains staged batches into the table; the caller holds mu.
func (b *Basket) admitLocked() {
	if b.feed == nil || b.feed.Pending() == 0 {
		return
	}
	// A staged batch of the wrong shape is refused here as Append would
	// refuse it; the Ingest that staged it has long returned, so there is
	// no caller left to tell and the batch is dropped.
	_ = b.feed.Drain(b.feedEmit)
}

// Len returns the number of buffered tuples.
func (b *Basket) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked()
	return b.table.NumRows()
}

// Hseq returns the OID of the oldest buffered tuple.
func (b *Basket) Hseq() bat.OID {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked()
	return b.table.Hseq()
}

// Bounds returns the oldest OID and the tuple count in one consistent
// view; hseq+n is the OID the next arrival will get. Removing tuples
// never decreases hseq+n, so it serves as a monotonic arrival watermark.
func (b *Basket) Bounds() (hseq bat.OID, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked()
	return b.table.Hseq(), b.table.NumRows()
}

// Append adds a batch of user columns, stamping every tuple with the
// current clock time. It wakes the append listeners.
func (b *Basket) Append(cols []*vector.Vector) error {
	b.mu.Lock()
	b.admitLocked() // staged tuples arrived earlier; keep FIFO
	err := b.stampedAppendLocked(cols, b.clock.Now())
	b.mu.Unlock()
	if err != nil {
		return err
	}
	b.notify()
	return nil
}

// stampedAppendLocked is the append core: stamp every tuple with the given
// arrival time, append, and shed over capacity. Caller holds mu.
func (b *Basket) stampedAppendLocked(cols []*vector.Vector, now int64) error {
	if len(cols) != b.UserWidth() {
		return fmt.Errorf("basket %s: expected %d columns, got %d", b.name, b.UserWidth(), len(cols))
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	ts := vector.NewWithCap(vector.Timestamp, n)
	for i := 0; i < n; i++ {
		ts.AppendInt(now)
	}
	full := append(append([]*vector.Vector(nil), cols...), ts)
	err := b.table.AppendBatch(full)
	if err == nil && b.capacity > 0 {
		if over := b.table.NumRows() - b.capacity; over > 0 {
			// Shed the oldest tuples and release any shared readers still
			// pointing at them.
			b.table.DropPrefix(over)
			b.shed += int64(over)
			hseq := b.table.Hseq()
			for id, mark := range b.readers {
				if mark < hseq {
					b.readers[id] = hseq
				}
			}
		}
	}
	return err
}

// SetChunkTarget overrides the storage layer's chunk sealing threshold
// (tests and tuning).
func (b *Basket) SetChunkTarget(n int) {
	b.mu.Lock()
	b.table.SetChunkTarget(n)
	b.mu.Unlock()
}

// SetCapacity bounds the basket to n tuples (0 disables shedding).
func (b *Basket) SetCapacity(n int) {
	b.mu.Lock()
	b.capacity = n
	b.mu.Unlock()
}

// Shed returns the number of tuples dropped by load shedding.
func (b *Basket) Shed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// AppendRows adds user-column rows one batch at a time.
func (b *Basket) AppendRows(rows [][]vector.Value) error {
	if len(rows) == 0 {
		return nil
	}
	cols := make([]*vector.Vector, b.UserWidth())
	for i := 0; i < b.UserWidth(); i++ {
		cols[i] = vector.NewWithCap(b.schema.Columns[i].Type, len(rows))
	}
	for _, row := range rows {
		if len(row) != b.UserWidth() {
			return fmt.Errorf("basket %s: row has %d values, want %d", b.name, len(row), b.UserWidth())
		}
		for i, v := range row {
			cols[i].AppendValue(v)
		}
	}
	return b.Append(cols)
}

// AppendRelation appends the user columns of a relation whose schema
// matches the basket's user schema (a trailing ts column, if present, is
// replaced with fresh timestamps).
func (b *Basket) AppendRelation(r *storage.Relation) error {
	cols := r.Cols
	if len(cols) == b.schema.Len() {
		cols = cols[:b.UserWidth()]
	}
	return b.Append(cols)
}

// Snapshot implements catalog.Source.
func (b *Basket) Snapshot() bat.View {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked()
	return b.table.Snapshot()
}

// Stats reports the physical layout of the basket: resident chunk count,
// live (retained) tuples, cumulative tuples consumed from the front, and
// the subset of those evicted by load shedding.
func (b *Basket) Stats() (chunks, resident int, dropped, shed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked()
	chunks, resident, dropped = b.table.Stats()
	return chunks, resident, dropped, b.shed
}

// Lock acquires the basket exclusively — the paper's basket.lock() used by
// factories around their processing step. Staged feed batches are admitted
// on entry, so a locked reader always sees everything that has arrived.
func (b *Basket) Lock() {
	b.mu.Lock()
	b.admitLocked()
}

// Unlock releases the basket.
func (b *Basket) Unlock() { b.mu.Unlock() }

// LockedSnapshot returns the current chunked view and length; the caller
// must hold Lock.
func (b *Basket) LockedSnapshot() (view bat.View, n int) {
	return b.table.Snapshot(), b.table.NumRows()
}

// LockedHseq returns the OID of the oldest buffered tuple; the caller must
// hold Lock.
func (b *Basket) LockedHseq() bat.OID { return b.table.Hseq() }

// LockedRemove removes the tuples at the given sorted snapshot positions;
// the caller must hold Lock. This is the basket-expression side effect in
// owned mode.
func (b *Basket) LockedRemove(pos []int) { b.table.Remove(pos) }

// LockedDropPrefix removes the first n tuples; the caller must hold Lock.
func (b *Basket) LockedDropPrefix(n int) { b.table.DropPrefix(n) }

// LockedAppendRelation appends result tuples while the caller holds Lock
// (used by factories writing their output baskets). Fresh timestamps are
// assigned; the scheduler hook fires when the caller unlocks via
// NotifyAppend.
func (b *Basket) LockedAppendRelation(r *storage.Relation) error {
	cols := r.Cols
	if len(cols) == b.schema.Len() {
		cols = cols[:b.UserWidth()]
	}
	if len(cols) != b.UserWidth() {
		return fmt.Errorf("basket %s: relation has %d columns, want %d", b.name, len(cols), b.UserWidth())
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	ts := vector.NewWithCap(vector.Timestamp, n)
	now := b.clock.Now()
	for i := 0; i < n; i++ {
		ts.AppendInt(now)
	}
	full := append(append([]*vector.Vector(nil), cols...), ts)
	return b.table.AppendBatch(full)
}

// NotifyAppend invokes the append listeners; factories call it after
// unlocking an output basket they appended to, and the ingest fan-out
// calls it after publishing to a feed.
func (b *Basket) NotifyAppend() {
	b.notify()
}

// --- shared-baskets mode -------------------------------------------------

// RegisterReader adds a shared-mode reader starting at the current oldest
// tuple. Tuples are retained until every registered reader has marked them
// seen.
func (b *Basket) RegisterReader(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.readers[id]; !dup {
		b.readers[id] = b.table.Hseq()
	}
}

// UnregisterReader removes a reader; retained tuples it was blocking are
// freed on the next mark.
func (b *Basket) UnregisterReader(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.readers, id)
	b.compactLocked()
}

// UnseenLocked returns the snapshot offset of the first tuple reader id
// has not seen, plus the current length; the caller must hold Lock.
func (b *Basket) UnseenLocked(id string) (offset, n int) {
	mark, ok := b.readers[id]
	hseq := b.table.Hseq()
	n = b.table.NumRows()
	if !ok || mark < hseq {
		mark = hseq
	}
	offset = int(mark - hseq)
	if offset > n {
		offset = n
	}
	return offset, n
}

// LockedSetMark records that reader id has seen everything below oid and
// compacts the prefix all readers have seen; the caller must hold Lock.
func (b *Basket) LockedSetMark(id string, oid bat.OID) {
	b.readers[id] = oid
	b.compactLocked()
}

// compactLocked drops the prefix every reader has seen.
func (b *Basket) compactLocked() {
	if len(b.readers) == 0 {
		return
	}
	hseq := b.table.Hseq()
	min := hseq + bat.OID(b.table.NumRows())
	for _, m := range b.readers {
		if m < min {
			min = m
		}
	}
	if d := int(min - hseq); d > 0 {
		b.table.DropPrefix(d)
	}
}

// Readers returns the number of registered shared-mode readers.
func (b *Basket) Readers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.readers)
}

// --- durability ----------------------------------------------------------

// CaptureState returns a serializable image of the basket: a deep copy
// of every resident column (including the implicit ts column) plus each
// shared reader's mark relative to the content start. Part of the
// checkpoint cut — the engine holds its consistency gate while calling.
func (b *Basket) CaptureState() (cols []*vector.Vector, marks map[string]int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.admitLocked() // staged arrivals are part of the cut
	cols = b.table.Snapshot().CloneColumns()
	hseq := b.table.Hseq()
	n := int64(b.table.NumRows())
	marks = make(map[string]int64, len(b.readers))
	for id, mark := range b.readers {
		rel := int64(mark - hseq)
		marks[id] = min(max(rel, 0), n)
	}
	return cols, marks
}

// RestoreState loads a captured image into an empty basket. Timestamps
// are restored verbatim (the image includes the ts column); reader
// marks are re-applied for readers already registered — a mark for an
// unknown reader is dropped, since an unregistered reader holds no
// retention claim.
func (b *Basket) RestoreState(cols []*vector.Vector, marks map[string]int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.table.NumRows() != 0 {
		return fmt.Errorf("basket %s: restore into non-empty basket", b.name)
	}
	if len(cols) != b.schema.Len() {
		return fmt.Errorf("basket %s: restore image has %d columns, want %d", b.name, len(cols), b.schema.Len())
	}
	if err := b.table.AppendBatch(cols); err != nil {
		return err
	}
	hseq := b.table.Hseq()
	for id := range b.readers {
		if rel, ok := marks[id]; ok {
			b.readers[id] = hseq + bat.OID(rel)
		}
	}
	return nil
}
