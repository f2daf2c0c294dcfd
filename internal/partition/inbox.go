package partition

import (
	"sync"
	"sync/atomic"

	"repro/internal/ring"
	"repro/internal/vector"
)

// Inbox is the lock-free ingest→shard handoff: the fan-out publishes one
// batch's shard slices to per-shard SPSC queues with a single atomic epoch
// store per batch, replacing the old discipline of locking every shard
// basket at once.
//
// The atomicity invariant the old all-locks scheme provided is preserved
// by epoch publication: each slice carries the batch's epoch, and shard
// consumers only admit items with epoch ≤ the published epoch, which is
// advanced (release store) only after every shard's slice is staged. No
// shard can therefore process its slice of a batch before the sibling
// slices are visible — exactly what the shared watermark group of a
// partitioned windowed query assumes ("every tuple below my group read
// was already routed to my input").
//
// Producers are serialized by pmu (the engine's fan-out may be called
// from many ingest goroutines); each shard's consumer is the shard basket
// itself, which drains under its own lock (see basket.Feed).
type Inbox struct {
	pmu    sync.Mutex
	epoch  atomic.Int64
	shards []*InboxShard
}

// inboxBatch is one shard slice of one published batch.
type inboxBatch struct {
	epoch int64
	ts    int64
	cols  []*vector.Vector
}

// InboxShard is one shard's staging queue; it implements basket.Feed.
type InboxShard struct {
	parent  *Inbox
	q       *ring.Queue[inboxBatch]
	pending atomic.Int64 // staged tuples
}

// NewInbox creates an inbox with one staging queue per shard whose
// lock-free ring holds capacity batches.
func NewInbox(shards, capacity int) *Inbox {
	ib := &Inbox{shards: make([]*InboxShard, shards)}
	for i := range ib.shards {
		ib.shards[i] = &InboxShard{parent: ib, q: ring.NewQueue[inboxBatch](capacity)}
	}
	return ib
}

// Shard returns shard i's feed.
func (ib *Inbox) Shard(i int) *InboxShard { return ib.shards[i] }

// Publish stages one batch's shard slices (parts[i] goes to shard i; nil
// or empty slices are skipped) and then publishes them with a single
// atomic epoch store. ts is the arrival timestamp the slices will be
// stamped with on admission.
func (ib *Inbox) Publish(parts [][]*vector.Vector, ts int64) {
	ib.pmu.Lock()
	ep := ib.epoch.Load() + 1
	for i, part := range parts {
		if len(part) == 0 || part[0].Len() == 0 {
			continue
		}
		sh := ib.shards[i]
		sh.q.Push(inboxBatch{epoch: ep, ts: ts, cols: part})
		sh.pending.Add(int64(part[0].Len()))
	}
	ib.epoch.Store(ep) // release: all slices of epoch ep are now staged
	ib.pmu.Unlock()
}

// Pending implements basket.Feed.
func (sh *InboxShard) Pending() int { return int(sh.pending.Load()) }

// Drain implements basket.Feed: emit every staged batch whose epoch has
// been published, oldest first. The caller (the shard basket, under its
// lock) is the single consumer.
func (sh *InboxShard) Drain(emit func(cols []*vector.Vector, ts int64) error) error {
	ep := sh.parent.epoch.Load()
	for {
		b, ok := sh.q.Peek()
		if !ok || b.epoch > ep {
			return nil
		}
		sh.q.PopN(1)
		sh.pending.Add(-int64(b.cols[0].Len()))
		if err := emit(b.cols, b.ts); err != nil {
			return err
		}
	}
}
