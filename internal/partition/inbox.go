package partition

import (
	"sync"
	"sync/atomic"

	"repro/internal/vector"
)

// Inbox is the ingest→shard handoff: the fan-out stages one batch's shard
// slices on per-shard lists instead of locking every shard basket at
// once, and each shard basket admits its list on demand (see basket.Feed).
//
// Publish stages every slice of a batch inside one mu critical section,
// and a shard takes its list under the same mutex. That single section
// is the invariant the shared watermark group of a partitioned windowed
// query assumes ("every tuple below my group read was already routed to
// my input"): all slices of a batch become visible together, so no shard
// can admit its slice of a batch before the sibling slices are staged.
type Inbox struct {
	mu     sync.Mutex
	shards []*InboxShard
}

// inboxBatch is one shard slice of one published batch.
type inboxBatch struct {
	ts   int64
	cols []*vector.Vector
}

// InboxShard is one shard's staging list; it implements basket.Feed.
type InboxShard struct {
	parent  *Inbox
	staged  []inboxBatch // guarded by parent.mu
	spare   []inboxBatch // the list Drain emptied last, reused by the next swap; consumer-only
	pending atomic.Int64 // staged tuples
}

// NewInbox creates an inbox with one staging list per shard.
func NewInbox(shards int) *Inbox {
	ib := &Inbox{shards: make([]*InboxShard, shards)}
	for i := range ib.shards {
		ib.shards[i] = &InboxShard{parent: ib}
	}
	return ib
}

// Shard returns shard i's feed.
func (ib *Inbox) Shard(i int) *InboxShard { return ib.shards[i] }

// Publish stages one batch's shard slices (parts[i] goes to shard i; nil
// or empty slices are skipped). ts is the arrival timestamp the slices
// will be stamped with on admission.
func (ib *Inbox) Publish(parts [][]*vector.Vector, ts int64) {
	ib.mu.Lock()
	for i, part := range parts {
		if len(part) == 0 || part[0].Len() == 0 {
			continue
		}
		sh := ib.shards[i]
		sh.staged = append(sh.staged, inboxBatch{ts: ts, cols: part})
		sh.pending.Add(int64(part[0].Len()))
	}
	ib.mu.Unlock()
}

// Pending implements basket.Feed.
func (sh *InboxShard) Pending() int { return int(sh.pending.Load()) }

// Drain implements basket.Feed: take the staged list under the inbox
// mutex and emit it, oldest first, outside it. The caller (the shard
// basket, under its lock) is the single consumer.
func (sh *InboxShard) Drain(emit func(cols []*vector.Vector, ts int64) error) error {
	ib := sh.parent
	ib.mu.Lock()
	batches := sh.staged
	sh.staged = sh.spare
	ib.mu.Unlock()
	var err error
	for i, b := range batches {
		sh.pending.Add(-int64(b.cols[0].Len()))
		if err = emit(b.cols, b.ts); err != nil {
			// The refused batch is dropped; the rest goes back in front of
			// whatever was staged meanwhile.
			ib.mu.Lock()
			sh.staged = append(append([]inboxBatch(nil), batches[i+1:]...), sh.staged...)
			ib.mu.Unlock()
			break
		}
	}
	clear(batches) // release references for GC
	sh.spare = batches[:0]
	return err
}
