package partition

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vector"
)

// TestInboxPublishIsAllOrNothing pins the invariant the watermark group
// of a partitioned windowed query rests on: a shard that has admitted its
// slice of batch k finds every sibling's slice of batch k already staged
// or admitted. One publisher, every shard draining concurrently (each
// under its own lock, as a shard basket drains under Basket.mu). It fails
// if Publish stages the slices of one batch in separate critical sections.
func TestInboxPublishIsAllOrNothing(t *testing.T) {
	const shards, batches = 4, 20000
	ib := NewInbox(shards)
	var (
		basketMu [shards]sync.Mutex
		admitted [shards]atomic.Int64 // highest batch number admitted by shard i
		done     atomic.Bool
		wg       sync.WaitGroup
	)
	for i := range admitted {
		admitted[i].Store(-1)
	}
	// reached reports the highest batch number shard j has staged or
	// admitted; j's lock keeps it from being mid-drain (taken, not emitted).
	reached := func(j int) int64 {
		basketMu[j].Lock()
		defer basketMu[j].Unlock()
		ib.mu.Lock()
		defer ib.mu.Unlock()
		if st := ib.shards[j].staged; len(st) > 0 {
			return st[len(st)-1].cols[0].Ints()[0]
		}
		return admitted[j].Load()
	}
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := ib.Shard(i)
			for last := false; !last; {
				last = done.Load() // read before the drain: one more pass after the publisher ends
				basketMu[i].Lock()
				err := sh.Drain(func(cols []*vector.Vector, _ int64) error {
					admitted[i].Store(cols[0].Ints()[0])
					return nil
				})
				basketMu[i].Unlock()
				if err != nil {
					t.Errorf("shard %d: drain: %v", i, err)
					return
				}
				k := admitted[i].Load()
				for j := 0; j < shards; j++ {
					if got := reached(j); got < k {
						t.Errorf("shard %d admitted batch %d while shard %d had only reached %d", i, k, j, got)
						return
					}
				}
			}
		}(i)
	}
	for k := int64(0); k < batches; k++ {
		parts := make([][]*vector.Vector, shards)
		for i := range parts {
			col := vector.NewWithCap(vector.Int64, 1)
			col.AppendInt(k)
			parts[i] = []*vector.Vector{col}
		}
		ib.Publish(parts, k)
	}
	done.Store(true)
	wg.Wait()
	for i := 0; i < shards; i++ {
		if got := admitted[i].Load(); got != batches-1 {
			t.Errorf("shard %d admitted through batch %d, want %d", i, got, batches-1)
		}
		if p := ib.Shard(i).Pending(); p != 0 {
			t.Errorf("shard %d: %d tuples still pending", i, p)
		}
	}
}
