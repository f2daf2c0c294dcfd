// Package adapters provides the periphery of the stream engine (§2.1):
// receptors pick up incoming events from a communication channel, validate
// their structure, and forward them into baskets; emitters pick up result
// tuples and deliver them to subscribed clients. The interchange format is
// the paper's deliberately simple one — flat relational tuples as text
// (comma-separated fields, one tuple per line, no quoting).
//
// The package owns the tuple level of that format — how a line splits
// into fields and a row joins into a line — in two shapes: AppendTuple and
// AppendRow go between text and columns without building a row (the
// daemon's two loops in internal/server), ParseTuple and FormatTuple
// between text and a []Value (the embedding API, bench/'s probes). How one
// field reads and prints is internal/vector's, and shared by both shapes.
// ChannelEmitter is the emitter behind a Subscription.
package adapters

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// ParseTuple decodes one comma-separated line against a schema (which must
// NOT include the implicit ts column — receptors never trust sender
// timestamps). It is the row-shaped form of AppendTuple, with the same
// accept/reject rules.
func ParseTuple(schema *catalog.Schema, line string) ([]vector.Value, error) {
	fields := strings.Split(line, ",")
	if len(fields) != schema.Len() {
		return nil, fieldCountError(len(fields), schema)
	}
	out := make([]vector.Value, len(fields))
	for i, f := range fields {
		v, err := vector.Parse(schema.Columns[i].Type, f)
		if err != nil {
			return nil, fieldError(i, schema, err)
		}
		out[i] = v
	}
	return out, nil
}

// AppendTuple decodes one comma-separated line straight into column
// builders: cols holds one vector per column of schema (the user schema,
// as for ParseTuple) and gains one element each. A line with the wrong
// number of fields or a field its column cannot parse is rejected and
// leaves every column as it was. line is only read during the call —
// VARCHAR fields are copied out of it — so it may be a view of a read
// buffer.
func AppendTuple(cols []*vector.Vector, schema *catalog.Schema, line []byte) error {
	if n := bytes.Count(line, comma) + 1; n != len(cols) {
		return fieldCountError(n, schema)
	}
	rows := cols[0].Len()
	for i, c := range cols {
		field := line
		if j := bytes.IndexByte(line, ','); j >= 0 {
			field, line = line[:j], line[j+1:]
		}
		if err := c.AppendField(field); err != nil {
			for _, done := range cols[:i] {
				done.Truncate(rows)
			}
			return fieldError(i, schema, err)
		}
	}
	return nil
}

var comma = []byte{','}

func fieldCountError(n int, schema *catalog.Schema) error {
	return fmt.Errorf("adapters: tuple has %d fields, schema %s needs %d", n, schema, schema.Len())
}

func fieldError(i int, schema *catalog.Schema, err error) error {
	return fmt.Errorf("adapters: field %d (%s): %w", i, schema.Columns[i].Name, err)
}

// FormatTuple encodes one row in the flat-text interchange format.
func FormatTuple(row []vector.Value) string {
	buf := make([]byte, 0, 16*len(row))
	for i, v := range row {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = v.AppendText(buf)
	}
	return string(buf)
}

// AppendRow appends row i of cols as one line of the interchange format:
// what FormatTuple prints for that row, and a newline.
func AppendRow(dst []byte, cols []*vector.Vector, i int) []byte {
	for c, col := range cols {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = col.AppendText(dst, i)
	}
	return append(dst, '\n')
}

// Backpressure selects what a channel emitter does when its subscriber
// falls behind and the channel fills up.
type Backpressure uint8

// Backpressure policies.
const (
	// BackpressureBlock keeps results in the output basket until the
	// subscriber catches up — nothing is lost, the producer slows down.
	BackpressureBlock Backpressure = iota
	// BackpressureDropOldest evicts the oldest undelivered batch to make
	// room — the subscriber always sees the freshest results.
	BackpressureDropOldest
)

// String names the policy.
func (b Backpressure) String() string {
	if b == BackpressureDropOldest {
		return "drop_oldest"
	}
	return "block"
}

// ChannelEmitter delivers result batches to a Go channel instead of a
// writer — the embedding API's subscription mechanism. It has no
// transition of its own: Fire drains the output basket into the channel
// and is called by whoever can make that possible — the firing that
// appended the rows (as the basket's append listener) and the consumer
// whose receive made room. Offer is the routed shared scan's hand-off of
// a member's rows during the firing that derived them. Both send through
// deliver.
type ChannelEmitter struct {
	name   string
	source *basket.Basket
	policy Backpressure
	ch     chan *storage.Relation

	// sendMu serializes every sender (Fire, Offer) against each other and
	// against Close: a sender checks for room and sends under it, so no
	// send blocks and ch is never closed while a send is in flight. Fire
	// drains source under it too, so Offer cannot overtake rows Fire has
	// taken but not yet sent, and a Fire that finds the channel full and
	// a receive that makes room cannot miss each other: the receiver's
	// next Fire runs after the full-channel check and sees the rows.
	sendMu  sync.Mutex
	closed  bool // guarded by sendMu
	dropped int64
	// batches counts relations sent to the subscriber; handoffs and
	// overflows count Offer's outcomes: batches handed to the subscriber,
	// and batches its caller appended to source instead.
	batches, handoffs, overflows atomic.Int64

	// Durability hooks (guarded by sendMu). delivered counts rows handed
	// to the subscriber since the query registered; after a restart the
	// engine seeds it with the checkpointed value and sets suppress to
	// the number of re-derived rows that were already delivered before
	// the crash — those are trimmed instead of re-sent, which is what
	// makes recovery resumption exactly-once at this boundary. onDeliver
	// publishes the advancing frontier (the engine journals it).
	delivered int64
	suppress  int64
	onDeliver func(delivered int64)

	// Latency observation (guarded by sendMu). The engine samples ~1/N
	// result batches: the factory result hook stamps the batch's newest
	// input timestamp and the emission instant via StampE2E, and the
	// next delivery reports both distances to latFn.
	latNow      func() int64
	latFn       func(deliveryNS, e2eNS int64, rows int)
	e2eIngestTS int64
	e2eEmitTS   int64
}

// SetLatencyObserver arms delivery-latency sampling: now is the engine
// clock, fn receives (delivery latency, end-to-end latency, rows) for
// each delivery whose batch was stamped via StampE2E. e2eNS is -1 when
// the stamp carried no input timestamp.
func (e *ChannelEmitter) SetLatencyObserver(now func() int64, fn func(deliveryNS, e2eNS int64, rows int)) {
	e.sendMu.Lock()
	e.latNow, e.latFn = now, fn
	e.sendMu.Unlock()
}

// StampE2E marks the in-flight result batch as a latency sample.
// ingestTS is the newest input-tuple timestamp the batch covers (<= 0
// when unknown). Called from the factory result hook, before the results
// reach the output basket: the append delivers them.
func (e *ChannelEmitter) StampE2E(ingestTS int64) {
	e.sendMu.Lock()
	if e.latFn != nil {
		e.e2eIngestTS = ingestTS
		e.e2eEmitTS = e.latNow()
	}
	e.sendMu.Unlock()
}

// NewChannelEmitter builds a channel emitter with the given buffer depth
// and backpressure policy.
func NewChannelEmitter(name string, source *basket.Basket, depth int, policy Backpressure) *ChannelEmitter {
	if depth < 1 {
		depth = 1
	}
	return &ChannelEmitter{
		name:   name,
		source: source,
		policy: policy,
		ch:     make(chan *storage.Relation, depth),
	}
}

// Name returns the emitter's name (EXPLAIN's deliver row).
func (e *ChannelEmitter) Name() string { return e.name }

// Policy returns the emitter's backpressure policy.
func (e *ChannelEmitter) Policy() Backpressure { return e.policy }

// room reports whether a send would not block: always under drop-oldest
// (deliver evicts), while the channel has a free slot under blocking.
// Only senders fill the channel and they all hold sendMu, so a true
// answer under sendMu holds until the lock is released.
func (e *ChannelEmitter) room() bool {
	return e.policy == BackpressureDropOldest || len(e.ch) < cap(e.ch)
}

// C returns the subscription channel. It is closed by Close.
func (e *ChannelEmitter) C() <-chan *storage.Relation { return e.ch }

// Dropped returns the number of batches evicted under drop-oldest.
func (e *ChannelEmitter) Dropped() int64 { return atomic.LoadInt64(&e.dropped) }

// Batches returns the number of relations sent to the subscriber.
func (e *ChannelEmitter) Batches() int64 { return e.batches.Load() }

// Dispositions returns how many batches Offer handed to the subscriber
// (handoff) and how many it declined, leaving them to the output basket
// (overflow).
func (e *ChannelEmitter) Dispositions() (handoff, overflow int64) {
	return e.handoffs.Load(), e.overflows.Load()
}

// Close terminates delivery: the channel is closed, and later firings and
// offers leave their rows in the output basket. Safe to call more than
// once and concurrently with Fire and Offer.
func (e *ChannelEmitter) Close() {
	e.sendMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
	e.sendMu.Unlock()
}

// Delivered returns the number of rows handed to the subscriber (plus
// any checkpoint-seeded base after a restart).
func (e *ChannelEmitter) Delivered() int64 {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	return e.delivered
}

// SetDelivered seeds the delivered counter (recovery: the checkpointed
// frontier). Call before anything fires into the emitter.
func (e *ChannelEmitter) SetDelivered(n int64) {
	e.sendMu.Lock()
	e.delivered = n
	e.sendMu.Unlock()
}

// SetSuppress arranges for the next n emitted rows to be trimmed rather
// than sent — recovery replay re-derives results that were already
// delivered before the crash. Call before anything fires into the emitter.
func (e *ChannelEmitter) SetSuppress(n int64) {
	e.sendMu.Lock()
	if n > 0 {
		e.suppress = n
	}
	e.sendMu.Unlock()
}

// OnDeliver registers the frontier callback, invoked with the new
// delivered total after each successful hand-off.
func (e *ChannelEmitter) OnDeliver(fn func(delivered int64)) {
	e.sendMu.Lock()
	e.onDeliver = fn
	e.sendMu.Unlock()
}

// Fire drains the output basket: everything it holds becomes one
// relation for the subscriber. On a full blocking channel the rows stay
// in the basket until the consumer makes room and calls Fire again; on a
// closed emitter they stay for good. Fire never blocks on the consumer.
func (e *ChannelEmitter) Fire() error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	if e.closed || !e.room() {
		return nil
	}
	e.source.Lock()
	view, n := e.source.LockedSnapshot()
	e.source.LockedDropPrefix(n)
	e.source.Unlock()
	if n > 0 {
		e.deliver(&storage.Relation{Schema: e.source.Schema(), Cols: view.Columns()}, n)
	}
	return nil
}

// Offer is the routed shared scan's hand-off: rel (n rows, in the output
// basket's schema) goes to the subscriber now, or Offer returns false and
// the caller appends it to the output basket as before. It never blocks,
// and declines whenever delivering could wait or overtake older rows: the
// emitter is closed, sendMu is busy, the output basket still holds rows,
// or a blocking channel is full. rel's vectors may be shared with other
// subscribers; nobody writes them after the call.
func (e *ChannelEmitter) Offer(rel *storage.Relation, n int) bool {
	if !e.sendMu.TryLock() {
		e.overflows.Add(1)
		return false
	}
	defer e.sendMu.Unlock()
	if e.closed || !e.room() || e.source.Len() > 0 {
		e.overflows.Add(1)
		return false
	}
	e.deliver(rel, n)
	e.handoffs.Add(1)
	return true
}

// deliver hands n rows to the subscriber: it trims what recovery
// suppresses, evicts the oldest batch under drop-oldest, sends and
// advances the frontier. The caller holds sendMu and has checked room,
// so the send cannot block.
func (e *ChannelEmitter) deliver(rel *storage.Relation, n int) {
	if e.suppress > 0 {
		k := int(min(e.suppress, int64(n)))
		e.suppress -= int64(k)
		e.delivered += int64(k)
		if n -= k; n == 0 {
			if e.onDeliver != nil {
				e.onDeliver(e.delivered)
			}
			return
		}
		cols := make([]*vector.Vector, len(rel.Cols))
		for i, c := range rel.Cols {
			cols[i] = c.Window(k, k+n)
		}
		rel = &storage.Relation{Schema: rel.Schema, Cols: cols}
	}
	for e.policy == BackpressureDropOldest && len(e.ch) == cap(e.ch) {
		select {
		case <-e.ch:
			atomic.AddInt64(&e.dropped, 1)
		default: // the subscriber took it first
		}
	}
	e.ch <- rel
	e.batches.Add(1)
	e.markDelivered(n)
}

// markDelivered advances the delivered counter and publishes the new
// frontier; the caller holds sendMu.
func (e *ChannelEmitter) markDelivered(n int) {
	e.delivered += int64(n)
	if e.onDeliver != nil {
		e.onDeliver(e.delivered)
	}
	if e.latFn != nil && e.e2eEmitTS != 0 {
		now := e.latNow()
		e2e := int64(-1)
		if e.e2eIngestTS > 0 {
			e2e = now - e.e2eIngestTS
		}
		e.latFn(now-e.e2eEmitTS, e2e, n)
		e.e2eEmitTS, e.e2eIngestTS = 0, 0
	}
}
