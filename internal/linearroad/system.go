package linearroad

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/datacell"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vector"
)

// System is the Linear Road application built on the DataCell engine:
//
//   - position reports stream into the `pos` basket;
//   - per-minute segment statistics run as a windowed continuous SQL query
//     (incremental evaluation), exactly the engine's normal path;
//   - a toll/accident processor — a custom Petri-net transition, the
//     paper's "factory wrapping part of a query plan" — consumes the
//     statistics basket and a private replica of the stream, maintains
//     vehicle state, and issues notifications.
type System struct {
	eng   *datacell.Engine
	clock *metrics.ManualClock
	proc  *tollProcessor

	// Latency tracks wall-clock time from batch ingest to quiescence —
	// an upper bound on per-report response time in step-driven mode.
	Latency *obs.Histogram
}

// statsQuery computes the benchmark's per-minute segment statistics. The
// WINDOW RANGE spans one simulated minute in nanoseconds; the engine clock
// runs on simulated time.
const statsQuery = `
SELECT p.xway AS xway, p.dir AS dir, p.seg AS seg,
       COUNT(DISTINCT p.vid) AS cnt, AVG(p.speed) AS avgspd, MIN(p.time) AS mintime
FROM [SELECT * FROM pos] AS p
GROUP BY p.xway, p.dir, p.seg
WINDOW RANGE 60000000000 SLIDE 60000000000`

// NewSystem assembles the Linear Road pipeline.
func NewSystem() (*System, error) {
	ctx := context.Background()
	clock := metrics.NewManualClock(0)
	eng, err := datacell.Open(ctx, datacell.Config{Clock: clock})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Exec(ctx, `CREATE BASKET pos (time INT, vid INT, speed INT, xway INT, lane INT, dir INT, seg INT, pos INT)`); err != nil {
		return nil, err
	}
	// Segment statistics: registered first so the scheduler fires it
	// before the toll processor within a pass.
	if _, err := eng.Exec(ctx, "CREATE CONTINUOUS QUERY segstats WITH (strategy = separate, window_mode = incremental, polling = true) AS "+statsQuery); err != nil {
		return nil, fmt.Errorf("linearroad: %w", err)
	}

	// The toll processor's private stream replica. Ingest only fans out to
	// engine-managed replicas, so Feed routes into it explicitly.
	pos, err := eng.Stream("pos")
	if err != nil {
		return nil, err
	}
	schema := &catalog.Schema{Columns: pos.Schema().Columns[:pos.UserWidth()]}
	posIn := basket.New("lr_tollproc_in", schema, clock)
	statsEntry, err := eng.Catalog().Lookup("segstats_out")
	if err != nil {
		return nil, err
	}
	statsBasket, ok := statsEntry.Source.(*basket.Basket)
	if !ok {
		return nil, fmt.Errorf("linearroad: segstats_out is not a basket")
	}
	proc := &tollProcessor{
		posIn:   posIn,
		statsIn: statsBasket,
		logic:   newTollLogic(),
		stats:   map[segKey]map[int64]sqlStat{},
	}
	h := eng.Scheduler().Register(proc, 0)
	posIn.Subscribe(h.Wake)
	statsBasket.Subscribe(h.Wake)
	return &System{eng: eng, clock: clock, proc: proc, Latency: obs.NewHistogram()}, nil
}

// Feed ingests the reports of one simulated second (all records must
// share the same Time) and processes them to quiescence, returning after
// all due notifications have been issued.
func (s *System) Feed(t int64, batch []Record) error {
	start := time.Now()
	s.clock.Set(t * int64(time.Second))
	// Close any simulated-time windows that ended before t: Drain fires
	// every factory whose window the clock has closed.
	s.eng.Drain()
	if len(batch) > 0 {
		rows := make([][]vector.Value, len(batch))
		for i, r := range batch {
			if r.Time != t {
				return fmt.Errorf("linearroad: record at %d fed during second %d", r.Time, t)
			}
			rows[i] = []vector.Value{
				vector.NewInt(r.Time), vector.NewInt(r.VID), vector.NewInt(r.Speed),
				vector.NewInt(r.XWay), vector.NewInt(r.Lane), vector.NewInt(r.Dir),
				vector.NewInt(r.Seg), vector.NewInt(r.Pos),
			}
		}
		if err := s.eng.Ingest(context.Background(), "pos", rows); err != nil {
			return err
		}
		if err := s.proc.posIn.AppendRows(rows); err != nil {
			return err
		}
	}
	s.eng.Drain()
	if err := s.eng.Scheduler().Err(); err != nil {
		return err
	}
	if len(batch) > 0 {
		s.Latency.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Run plays a whole generated stream through the system.
func (s *System) Run(records []Record) error {
	if len(records) == 0 {
		return nil
	}
	last := records[len(records)-1].Time
	i := 0
	for t := int64(0); t <= last; t++ {
		j := i
		for j < len(records) && records[j].Time == t {
			j++
		}
		if err := s.Feed(t, records[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Notifications returns everything issued so far, in stream order.
func (s *System) Notifications() []Notification {
	return s.proc.notificationsCopy()
}

// Engine exposes the underlying engine (statistics, inspection).
func (s *System) Engine() *datacell.Engine { return s.eng }

// sqlStat is one minute's statistics row as computed by the SQL query.
type sqlStat struct {
	cnt int64
	avg float64
}

// tollProcessor is the custom transition: it absorbs statistics rows and
// position reports, maintains vehicle/accident state, and charges tolls.
type tollProcessor struct {
	posIn   *basket.Basket
	statsIn *basket.Basket

	logic *tollLogic
	stats map[segKey]map[int64]sqlStat

	mu            sync.Mutex
	notifications []Notification
}

// Name implements scheduler.Transition.
func (p *tollProcessor) Name() string { return "lr_tollproc" }

// Ready implements scheduler.Transition.
func (p *tollProcessor) Ready() bool {
	return p.statsIn.Len() > 0 || p.posIn.Len() > 0
}

// Fire implements scheduler.Transition.
func (p *tollProcessor) Fire() error {
	// 1. Absorb new statistics rows (xway, dir, seg, cnt, avgspd, mintime, ts).
	p.statsIn.Lock()
	view, n := p.statsIn.LockedSnapshot()
	p.statsIn.LockedDropPrefix(n)
	p.statsIn.Unlock()
	for _, ch := range view.Chunks {
		cols := ch.Cols
		for i := 0; i < ch.Len(); i++ {
			sk := segKey{cols[0].Get(i).I, cols[1].Get(i).I, cols[2].Get(i).I}
			perMin := p.stats[sk]
			if perMin == nil {
				perMin = map[int64]sqlStat{}
				p.stats[sk] = perMin
			}
			minute := cols[5].Get(i).I / 60
			perMin[minute] = sqlStat{cnt: cols[3].Get(i).I, avg: cols[4].Get(i).F}
		}
	}

	// 2. Process position reports in arrival order.
	p.posIn.Lock()
	view, n = p.posIn.LockedSnapshot()
	p.posIn.LockedDropPrefix(n)
	p.posIn.Unlock()
	for _, ch := range view.Chunks {
		cols := ch.Cols
		for i := 0; i < ch.Len(); i++ {
			r := Record{
				Time: cols[0].Get(i).I, VID: cols[1].Get(i).I, Speed: cols[2].Get(i).I,
				XWay: cols[3].Get(i).I, Lane: cols[4].Get(i).I, Dir: cols[5].Get(i).I,
				Seg: cols[6].Get(i).I, Pos: cols[7].Get(i).I,
			}
			if p.logic.observe(r) {
				note := p.logic.charge(r, p.lookup)
				p.mu.Lock()
				p.notifications = append(p.notifications, note)
				p.mu.Unlock()
			}
		}
	}
	return nil
}

// lookup implements statsLookup over the SQL-computed statistics.
func (p *tollProcessor) lookup(xway, dir, seg, minute int64) (int64, float64, bool) {
	perMin := p.stats[segKey{xway, dir, seg}]
	if perMin == nil {
		return 0, 0, false
	}
	var cnt int64
	if prev, ok := perMin[minute-1]; ok {
		cnt = prev.cnt
	}
	var sum float64
	var have int
	for d := int64(1); d <= 5; d++ {
		if s, ok := perMin[minute-d]; ok && s.cnt > 0 {
			sum += s.avg
			have++
		}
	}
	if have == 0 {
		return cnt, 0, false
	}
	return cnt, sum / float64(have), true
}

func (p *tollProcessor) notificationsCopy() []Notification {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Notification(nil), p.notifications...)
}
