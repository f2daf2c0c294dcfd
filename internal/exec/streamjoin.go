// Streaming join state: the cross-firing half of runJoin. A continuous
// query's join is not a batch operator — tuples that arrive in different
// firings must still find each other exactly once. StreamJoin keeps the
// persistent state that makes that possible:
//
//   - Symmetric mode (stream ⋈ stream): both sides accumulate into hash
//     tables keyed by the equi-join key. Each firing probes the new
//     tuples of one side against the other side's accumulated table (and
//     vice versa), so every matching pair is produced exactly once no
//     matter how the two arrival orders interleave. A WITHIN bound turns
//     the join into a time-band join and expires entries behind the
//     watermark, keeping the state finite.
//   - Stream-table mode (stream ⋈ table): only the table side is
//     materialized — as a hash table rebuilt when the table's version
//     changes — and each firing's new stream tuples probe it once.
//     Stream tuples are never retained: enrichment matches against the
//     reference table as of the firing.
//
// The factory owns one StreamJoin per join node and installs it in the
// execution Context; runJoin delegates to Probe instead of re-running a
// batch hash join.
package exec

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// noTS marks "no timestamp observed yet" (same convention as the window
// layer's watermark state).
const noTS = math.MinInt64

// SharedClock is a monotonic max-timestamp register. The shard states of
// one co-partitioned join share one per side, so a shard whose partition
// lags still expires state once the stream as a whole has moved on
// (window.WatermarkGroup satisfies it).
type SharedClock interface {
	Raise(ts int64)
	Max() int64
}

// StreamJoinStats is a snapshot of one join state's counters.
type StreamJoinStats struct {
	// StateRows is the number of rows currently held: both hash sides for
	// a symmetric join, the materialized table for a stream-table join.
	StateRows int64
	// Evictions counts hash entries expired behind the watermark (WITHIN
	// bounds only).
	Evictions int64
	// Late counts probe tuples that arrived behind their side's
	// watermark: their potential matches may already be expired, so the
	// pairs they do find can be incomplete.
	Late int64
}

// StreamJoin is persistent join state for one plan Join node. It is safe
// for concurrent use, though the owning factory serializes Probe; the
// lock mainly guards Stats readers.
type StreamJoin struct {
	join   *plan.Join
	lkeyE  expr.Expr // key expression in the left child's frame
	rkeyE  expr.Expr // key expression in the right child's frame
	rest   expr.Expr // residual predicate over the concatenated frame
	keyTyp vector.Type

	within   int64 // time band in ns; 0 = unbounded
	lateness int64 // allowed disorder per side; watermark trails max by this

	symmetric  bool
	streamSide byte          // stream-table mode: 'L' or 'R'
	tableVer   func() uint64 // stream-table mode: table mutation counter

	mu    sync.Mutex
	left  *joinSide
	right *joinSide
	table *tableCache
	stats StreamJoinStats
}

// joinSide is one accumulated input of a symmetric join.
type joinSide struct {
	rel   *storage.Relation
	keys  []vector.Value // normalized, never NULL (null-key rows are not stored)
	ts    []int64        // event timestamps (timed joins only)
	index map[vector.Value][]int
	tsIdx int // ts column in the child frame; -1 = untimed
	local int64
	clock SharedClock
	// clockSeen is the shared-clock reading this side may act on. The
	// watermark never reads the clock live: another shard may have raised
	// it past tuples still unprocessed in this shard's input basket, and
	// expiring against that reading could evict their partners. The
	// owning factory observes the clock before pinning its inputs (see
	// ObserveClocks), when every tuple below the reading is either
	// already probed or inside the pinned snapshot.
	clockSeen int64
}

// tableCache is the materialized table side of a stream-table join.
type tableCache struct {
	version uint64
	rel     *storage.Relation
	index   map[vector.Value][]int
}

// NewSymmetricJoin builds cross-firing symmetric hash state for a
// stream-stream join. The node must have an equi-join conjunct; lateness
// is the per-side disorder tolerance the watermark trails by.
func NewSymmetricJoin(node *plan.Join, lateness int64) (*StreamJoin, error) {
	sj, err := newStreamJoin(node)
	if err != nil {
		return nil, err
	}
	sj.symmetric = true
	sj.lateness = lateness
	ltsIdx, rtsIdx := -1, -1
	if node.Within > 0 {
		lw := node.L.Schema().Len()
		ltsIdx, rtsIdx = node.LTs, node.RTs-lw
	}
	sj.left = newJoinSide(ltsIdx)
	sj.right = newJoinSide(rtsIdx)
	return sj, nil
}

// NewStreamTableJoin builds enrichment state for a stream-table join:
// streamSide marks which child is the stream ('L' or 'R'); version
// reports the table's mutation counter so the cached hash is rebuilt
// exactly when the table changed.
func NewStreamTableJoin(node *plan.Join, streamSide byte, version func() uint64) (*StreamJoin, error) {
	if node.Within > 0 {
		return nil, fmt.Errorf("exec: WITHIN needs timestamps on both join inputs; a table has none")
	}
	sj, err := newStreamJoin(node)
	if err != nil {
		return nil, err
	}
	if streamSide != 'L' && streamSide != 'R' {
		return nil, fmt.Errorf("exec: invalid stream side %q", streamSide)
	}
	if version == nil {
		return nil, fmt.Errorf("exec: stream-table join needs a table version source")
	}
	sj.streamSide = streamSide
	sj.tableVer = version
	return sj, nil
}

func newStreamJoin(node *plan.Join) (*StreamJoin, error) {
	if node.On == nil {
		return nil, fmt.Errorf("exec: streaming joins need a join condition")
	}
	lw := node.L.Schema().Len()
	lkeyE, rkeyE, rest := expr.EquiKeys(node.On, lw)
	if lkeyE == nil {
		return nil, fmt.Errorf("exec: streaming joins need an equi-join conjunct")
	}
	return &StreamJoin{
		join:   node,
		lkeyE:  lkeyE,
		rkeyE:  rkeyE,
		rest:   expr.JoinConjuncts(rest),
		keyTyp: unifyKeyType(lkeyE.Type(), rkeyE.Type()),
		within: node.Within,
	}, nil
}

func newJoinSide(tsIdx int) *joinSide {
	return &joinSide{
		index:     map[vector.Value][]int{}, // rel is allocated lazily on first insert
		tsIdx:     tsIdx,
		local:     noTS,
		clockSeen: noTS,
	}
}

// Node returns the plan node this state serves (the Context.Joins key).
func (sj *StreamJoin) Node() *plan.Join { return sj.join }

// Symmetric reports whether this is stream-stream state (both inputs are
// streams, so the owning factory must fire when either side has tuples).
func (sj *StreamJoin) Symmetric() bool { return sj.symmetric }

// ShareClocks attaches per-side shared clocks; the shard states of one
// co-partitioned join share them so expiry tracks the whole stream's
// progress, not one shard's subsequence.
func (sj *StreamJoin) ShareClocks(left, right SharedClock) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.symmetric {
		sj.left.clock = left
		sj.right.clock = right
	}
}

// ObserveClocks admits the shared clocks' current maxima into this
// state's watermarks. The owning factory calls it BEFORE pinning its
// inputs: every tuple routed below the reading is then either already
// probed or inside the pinned snapshot, so eviction driven by the
// reading can never outrun an unprocessed arrival (the same discipline
// as the window layer's watermark groups).
func (sj *StreamJoin) ObserveClocks() {
	if !sj.symmetric || sj.within == 0 {
		return
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	sj.left.observeClock()
	sj.right.observeClock()
}

func (s *joinSide) observeClock() {
	if s.clock == nil {
		return
	}
	if g := s.clock.Max(); g > s.clockSeen {
		s.clockSeen = g
	}
}

// Stats returns a snapshot of the state counters.
func (sj *StreamJoin) Stats() StreamJoinStats {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	st := sj.stats
	st.StateRows = sj.stateRowsLocked()
	return st
}

func (sj *StreamJoin) stateRowsLocked() int64 {
	if sj.symmetric {
		return int64(len(sj.left.keys) + len(sj.right.keys))
	}
	if sj.table != nil {
		return int64(sj.table.rel.NumRows())
	}
	return 0
}

// Probe implements IncrementalJoin.
func (sj *StreamJoin) Probe(eval func(plan.Node) (*storage.Relation, error)) (*storage.Relation, error) {
	if sj.symmetric {
		return sj.probeSymmetric(eval)
	}
	return sj.probeTable(eval)
}

// probeSymmetric is one firing of the symmetric hash join: the new left
// tuples probe the accumulated right side, then join the left table, and
// the new right tuples probe the full (updated) left side — every
// matching pair across firings is found exactly once.
func (sj *StreamJoin) probeSymmetric(eval func(plan.Node) (*storage.Relation, error)) (*storage.Relation, error) {
	lNew, err := eval(sj.join.L)
	if err != nil {
		return nil, err
	}
	rNew, err := eval(sj.join.R)
	if err != nil {
		return nil, err
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()

	lKeys := sj.batchKeys(sj.lkeyE, lNew)
	rKeys := sj.batchKeys(sj.rkeyE, rNew)
	if sj.within > 0 {
		// A tuple behind its own side's watermark may have lost matches to
		// expiry on the opposite side: the eviction frontier there is
		// exactly ownWatermark − within.
		sj.stats.Late += sj.left.countLate(lNew, sj.lateness)
		sj.stats.Late += sj.right.countLate(rNew, sj.lateness)
	}

	out := emptyRelation(sj.join.Out)
	lw := len(sj.join.L.Schema().Columns)

	// New left vs accumulated right (matches across firings, one way).
	sj.matchInto(out, lNew, lKeys, sj.right, true, lw)
	// Absorb the left batch, then new right vs the full left side: pairs
	// inside this firing's two batches are found here, once.
	sj.left.insert(lNew, lKeys)
	sj.matchInto(out, rNew, rKeys, sj.left, false, lw)
	sj.right.insert(rNew, rKeys)

	// Time advances, then state behind the opposite side's horizon goes.
	if sj.within > 0 {
		sj.left.raise(lNew)
		sj.right.raise(rNew)
		if wm, ok := sj.right.watermark(sj.lateness); ok {
			sj.stats.Evictions += int64(sj.left.expire(wm - sj.within))
		}
		if wm, ok := sj.left.watermark(sj.lateness); ok {
			sj.stats.Evictions += int64(sj.right.expire(wm - sj.within))
		}
	}
	return sj.residual(out)
}

// matchInto probes batch rows (with their normalized keys) against the
// accumulated side and appends the matching pairs to out. batchIsLeft
// says which side of the output frame the batch columns fill.
func (sj *StreamJoin) matchInto(out *storage.Relation, batch *storage.Relation, keys []vector.Value, acc *joinSide, batchIsLeft bool, lw int) {
	if batch.NumRows() == 0 || len(acc.keys) == 0 {
		return
	}
	var bts *vector.Vector
	batchTS := -1
	if sj.within > 0 {
		if batchIsLeft {
			batchTS = sj.left.tsIdx
		} else {
			batchTS = sj.right.tsIdx
		}
		bts = batch.Cols[batchTS]
	}
	var bpos, apos []int
	for i, k := range keys {
		if k.Null {
			continue
		}
		cands := acc.index[k]
		if len(cands) == 0 {
			continue
		}
		var t int64
		if bts != nil {
			v := bts.Get(i)
			if v.Null {
				continue
			}
			t = v.I
		}
		for _, p := range cands {
			if bts != nil {
				d := t - acc.ts[p]
				if d < 0 {
					d = -d
				}
				if d > sj.within {
					continue
				}
			}
			bpos = append(bpos, i)
			apos = append(apos, p)
		}
	}
	if len(bpos) == 0 {
		return
	}
	lRel, lpos, rRel, rpos := batch, bpos, acc.rel, apos
	if !batchIsLeft {
		lRel, lpos, rRel, rpos = acc.rel, apos, batch, bpos
	}
	for c := 0; c < lw; c++ {
		out.Cols[c].AppendTake(lRel.Cols[c], lpos, 0)
	}
	for c := lw; c < len(out.Cols); c++ {
		out.Cols[c].AppendTake(rRel.Cols[c-lw], rpos, 0)
	}
}

// probeTable is one firing of the stream-table join: the new stream
// tuples probe the cached table hash, which is re-materialized only when
// the table's version moved.
func (sj *StreamJoin) probeTable(eval func(plan.Node) (*storage.Relation, error)) (*storage.Relation, error) {
	streamChild, tableChild := sj.join.L, sj.join.R
	streamKeyE, tableKeyE := sj.lkeyE, sj.rkeyE
	if sj.streamSide == 'R' {
		streamChild, tableChild = sj.join.R, sj.join.L
		streamKeyE, tableKeyE = sj.rkeyE, sj.lkeyE
	}
	sNew, err := eval(streamChild)
	if err != nil {
		return nil, err
	}

	sj.mu.Lock()
	defer sj.mu.Unlock()
	// The version is read before the snapshot: a concurrent append bumps
	// it after this read, forcing a rebuild next firing — the cache can
	// over-refresh but never silently serve a stale table.
	ver := sj.tableVer()
	if sj.table == nil || sj.table.version != ver {
		tRel, err := eval(tableChild)
		if err != nil {
			return nil, err
		}
		tKeys := sj.batchKeys(tableKeyE, tRel)
		index := make(map[vector.Value][]int, len(tKeys))
		for i, k := range tKeys {
			if k.Null {
				continue
			}
			index[k] = append(index[k], i)
		}
		sj.table = &tableCache{version: ver, rel: tRel, index: index}
	}

	sKeys := sj.batchKeys(streamKeyE, sNew)
	var spos, tpos []int
	for i, k := range sKeys {
		if k.Null {
			continue
		}
		for _, p := range sj.table.index[k] {
			spos = append(spos, i)
			tpos = append(tpos, p)
		}
	}
	out := emptyRelation(sj.join.Out)
	lw := len(sj.join.L.Schema().Columns)
	lRel, lpos, rRel, rpos := sNew, spos, sj.table.rel, tpos
	if sj.streamSide == 'R' {
		lRel, lpos, rRel, rpos = sj.table.rel, tpos, sNew, spos
	}
	for c := 0; c < lw; c++ {
		out.Cols[c].AppendTake(lRel.Cols[c], lpos, 0)
	}
	for c := lw; c < len(out.Cols); c++ {
		out.Cols[c].AppendTake(rRel.Cols[c-lw], rpos, 0)
	}
	return sj.residual(out)
}

// residual applies the non-equi conjuncts of the join condition.
func (sj *StreamJoin) residual(out *storage.Relation) (*storage.Relation, error) {
	if sj.rest == nil || out.NumRows() == 0 {
		return out, nil
	}
	mask, err := expr.Eval(sj.rest, out.Cols, nil)
	if err != nil {
		return nil, err
	}
	return out.Take(algebra.MaskSelect(mask, nil)), nil
}

// batchKeys evaluates and normalizes the join key for every batch row.
func (sj *StreamJoin) batchKeys(keyE expr.Expr, batch *storage.Relation) []vector.Value {
	if batch.NumRows() == 0 {
		return nil
	}
	kv, err := expr.Eval(keyE, batch.Cols, nil)
	if err != nil {
		// Key expressions are type-checked at plan time; evaluation over
		// well-typed columns cannot fail.
		panic(fmt.Sprintf("exec: join key evaluation: %v", err))
	}
	out := make([]vector.Value, kv.Len())
	for i := range out {
		out[i] = normKey(kv.Get(i), sj.keyTyp)
	}
	return out
}

// unifyKeyType picks the normalized key domain for the two key
// expressions: identical types stay (timestamps fold into Int64); mixed
// numeric pairs compare as Float64, matching SQL equality.
func unifyKeyType(l, r vector.Type) vector.Type {
	if l == vector.Float64 || r == vector.Float64 {
		if l != r {
			return vector.Float64
		}
	}
	if l == vector.Timestamp || l == vector.Int64 {
		return vector.Int64
	}
	return l
}

// normKey maps a key value into the unified domain so map equality
// coincides with SQL equality. NULL keys stay NULL (they never match).
func normKey(v vector.Value, typ vector.Type) vector.Value {
	if v.Null {
		return vector.Value{Typ: typ, Null: true}
	}
	switch typ {
	case vector.Int64:
		return vector.Value{Typ: vector.Int64, I: v.I}
	case vector.Float64:
		f := v.F
		if v.Typ == vector.Int64 || v.Typ == vector.Timestamp {
			f = float64(v.I)
		}
		return vector.Value{Typ: vector.Float64, F: f}
	default:
		v.Typ = typ
		return v
	}
}

func emptyRelation(schema *catalog.Schema) *storage.Relation {
	out := &storage.Relation{Schema: schema, Cols: make([]*vector.Vector, schema.Len())}
	for i, c := range schema.Columns {
		out.Cols[i] = vector.New(c.Type)
	}
	return out
}

// --- durability ----------------------------------------------------------

// JoinSideState is the serializable image of one accumulated join side:
// the retained rows plus the side's watermark registers. Keys,
// timestamps, and the hash index are derived data and are rebuilt on
// restore by re-running the insert path over the rows.
type JoinSideState struct {
	Cols      []*vector.Vector
	Local     int64
	ClockSeen int64
}

// JoinState is the serializable image of a StreamJoin for checkpoints.
// Stream-table mode carries no rows — the table cache is rebuilt from
// the (separately persisted) table on the first post-restore firing.
type JoinState struct {
	Symmetric bool
	Left      *JoinSideState
	Right     *JoinSideState
	Stats     StreamJoinStats
}

// Snapshot captures the join state.
func (sj *StreamJoin) Snapshot() *JoinState {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	st := &JoinState{Symmetric: sj.symmetric, Stats: sj.stats}
	if sj.symmetric {
		st.Left = sj.left.snapshot()
		st.Right = sj.right.snapshot()
	}
	return st
}

func (s *joinSide) snapshot() *JoinSideState {
	st := &JoinSideState{Local: s.local, ClockSeen: s.clockSeen}
	if s.rel != nil {
		st.Cols = vector.CloneColumns(s.rel.Cols)
	}
	return st
}

// Restore loads a snapshot into a freshly built StreamJoin (same plan
// node and configuration). Accumulated rows are re-inserted through the
// normal path, rebuilding keys, timestamps, and the hash index; shared
// clocks, if attached, are re-raised to the restored maxima.
func (sj *StreamJoin) Restore(st *JoinState) error {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if st.Symmetric != sj.symmetric {
		return fmt.Errorf("exec: join restore mode mismatch")
	}
	sj.stats = st.Stats
	if !sj.symmetric {
		return nil
	}
	if err := sj.left.restore(st.Left, sj.join.L.Schema(), sj, sj.lkeyE); err != nil {
		return err
	}
	return sj.right.restore(st.Right, sj.join.R.Schema(), sj, sj.rkeyE)
}

func (s *joinSide) restore(st *JoinSideState, schema *catalog.Schema, sj *StreamJoin, keyE expr.Expr) error {
	if st == nil {
		return nil
	}
	if len(s.keys) != 0 {
		return fmt.Errorf("exec: join restore into non-empty side")
	}
	if len(st.Cols) > 0 {
		if len(st.Cols) != schema.Len() {
			return fmt.Errorf("exec: join restore image has %d columns, want %d", len(st.Cols), schema.Len())
		}
		rel := &storage.Relation{Schema: schema, Cols: st.Cols}
		s.insert(rel, sj.batchKeys(keyE, rel))
	}
	s.local = st.Local
	s.clockSeen = st.ClockSeen
	if s.clock != nil && s.local != noTS {
		s.clock.Raise(s.local)
	}
	return nil
}

// --- joinSide ------------------------------------------------------------

// insert absorbs a batch into the accumulated side. Rows with NULL keys
// (or, on timed sides, NULL timestamps) can never match and are not
// stored.
func (s *joinSide) insert(batch *storage.Relation, keys []vector.Value) {
	n := batch.NumRows()
	if n == 0 {
		return
	}
	if s.rel == nil {
		s.rel = emptyRelation(batch.Schema)
	}
	var tsv *vector.Vector
	if s.tsIdx >= 0 {
		tsv = batch.Cols[s.tsIdx]
	}
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if keys[i].Null {
			continue
		}
		if tsv != nil && tsv.Get(i).Null {
			continue
		}
		keep = append(keep, i)
	}
	if len(keep) == 0 {
		return
	}
	base := len(s.keys)
	for c, col := range s.rel.Cols {
		col.AppendTake(batch.Cols[c], keep, 0)
	}
	for j, i := range keep {
		k := keys[i]
		s.keys = append(s.keys, k)
		if tsv != nil {
			s.ts = append(s.ts, tsv.Get(i).I)
		}
		s.index[k] = append(s.index[k], base+j)
	}
}

// raise lifts the side's event-time maximum (and the shared clock) to
// the batch maximum.
func (s *joinSide) raise(batch *storage.Relation) {
	if s.tsIdx < 0 || batch.NumRows() == 0 {
		return
	}
	tsv := batch.Cols[s.tsIdx]
	max := int64(noTS)
	for i := 0; i < tsv.Len(); i++ {
		if v := tsv.Get(i); !v.Null && v.I > max {
			max = v.I
		}
	}
	if max == noTS {
		return
	}
	if max > s.local {
		s.local = max
	}
	if s.clock != nil {
		s.clock.Raise(max)
	}
}

// watermark is the side's event-time frontier: max seen (locally, or by
// any shard sharing the clock — via the last safe pre-pin observation)
// minus the allowed lateness.
func (s *joinSide) watermark(lateness int64) (int64, bool) {
	wm := s.local
	if s.clockSeen > wm {
		wm = s.clockSeen
	}
	if wm == noTS {
		return 0, false
	}
	return wm - lateness, true
}

// countLate counts batch tuples behind the side's watermark (computed
// before the batch raises it): the opposite side's expiry frontier is
// watermark − within, so such a tuple's match range may already be gone.
func (s *joinSide) countLate(batch *storage.Relation, lateness int64) int64 {
	if s.tsIdx < 0 || batch.NumRows() == 0 {
		return 0
	}
	wm, ok := s.watermark(lateness)
	if !ok {
		return 0
	}
	tsv := batch.Cols[s.tsIdx]
	late := int64(0)
	for i := 0; i < tsv.Len(); i++ {
		if v := tsv.Get(i); !v.Null && v.I < wm {
			late++
		}
	}
	return late
}

// expire drops rows whose timestamp is behind the frontier. The sweep
// runs every firing (a cheap scan); the O(n) compaction only when the
// expired fraction is worth it, so the retained state stays within a
// small constant factor of the live rows.
func (s *joinSide) expire(frontier int64) int {
	if s.tsIdx < 0 || len(s.ts) == 0 {
		return 0
	}
	expired := 0
	for _, t := range s.ts {
		if t < frontier {
			expired++
		}
	}
	n := len(s.ts)
	if expired == 0 || (expired < n/4 && expired < 4096) {
		return 0
	}
	keep := make([]int, 0, n-expired)
	for i, t := range s.ts {
		if t >= frontier {
			keep = append(keep, i)
		}
	}
	s.rel = s.rel.Take(keep)
	newKeys := make([]vector.Value, 0, len(keep))
	newTS := make([]int64, 0, len(keep))
	index := make(map[vector.Value][]int, len(keep))
	for j, i := range keep {
		k := s.keys[i]
		newKeys = append(newKeys, k)
		newTS = append(newTS, s.ts[i])
		index[k] = append(index[k], j)
	}
	s.keys, s.ts, s.index = newKeys, newTS, index
	return expired
}
