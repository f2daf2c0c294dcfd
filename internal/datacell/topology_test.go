package datacell

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/sql"
	"repro/internal/vector"
)

// topoEngine builds the stream layouts the planner distinguishes: a flat
// stream f, a 4-way partitioned stream s (both k, g, v, et), the flat
// join pair fl/fr and the co-partitioned join pair l/r (k, v, et), a
// lookup table ref, and a polling upstream query up for chained reads.
func topoEngine(t *testing.T) *Engine {
	t.Helper()
	e := newCore(Config{})
	for _, ddl := range []string{
		"CREATE BASKET f (k INT, g INT, v INT, et INT)",
		"CREATE BASKET s (k INT, g INT, v INT, et INT) WITH (partitions = 4, partition_by = k)",
		"CREATE BASKET fl (k INT, v INT, et INT)",
		"CREATE BASKET fr (k INT, v INT, et INT)",
		"CREATE BASKET l (k INT, v INT, et INT) WITH (partitions = 2, partition_by = k)",
		"CREATE BASKET r (k INT, v INT, et INT) WITH (partitions = 2, partition_by = k)",
		"CREATE TABLE ref (k INT, name VARCHAR)",
		"CREATE CONTINUOUS QUERY up WITH (polling = true) AS SELECT * FROM [SELECT * FROM f] AS x",
	} {
		if _, err := e.Exec(context.Background(), ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	return e
}

// armedTimers counts the queries among qs whose window timer is armed.
func armedTimers(qs ...*Query) int {
	n := 0
	for _, q := range qs {
		if q.timer != nil {
			q.timer.mu.Lock()
			if q.timer.t != nil {
				n++
			}
			q.timer.mu.Unlock()
		}
	}
	return n
}

// netFootprint is everything a registration may leave behind: catalog
// entries, fan-out replicas, shard-routing switches, shared readers,
// scheduler transitions, subscriptions, armed window timers, and claimed
// query and cascade names.
func netFootprint(e *Engine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "catalog=%v transitions=%d", e.cat.Names(), len(e.sched.Transitions()))
	fmt.Fprintf(&b, " timers=%d", armedTimers(e.Queries()...))
	e.mu.Lock()
	fmt.Fprintf(&b, " queries=%d cascades=%d subs=%d", len(e.queries), len(e.cascades), len(e.subs))
	var streams []*stream
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	sort.Slice(streams, func(i, j int) bool { return streams[i].name < streams[j].name })
	for _, s := range streams {
		e.mu.Lock()
		fmt.Fprintf(&b, " %s:replicas=%d,shardReaders=%d,scan=%t", s.name, len(s.replicas), s.shardReaders, s.scan != nil)
		e.mu.Unlock()
		fmt.Fprintf(&b, ",readers=%d", s.primary.Readers())
		for _, sh := range s.shards {
			fmt.Fprintf(&b, "/%d", sh.Readers())
		}
	}
	return b.String()
}

// planFor plans CREATE CONTINUOUS QUERY q [WITH (with)] AS text without
// installing it.
func planFor(t *testing.T, e *Engine, text, with string) (*topology, error) {
	t.Helper()
	stmt := "CREATE CONTINUOUS QUERY q"
	if with != "" {
		stmt += " WITH (" + with + ")"
	}
	st, err := sql.Parse(stmt + " AS " + text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	cc := st.(*sql.CreateContinuousStmt)
	cfg, err := configFromSpecs(cc.Options)
	if err != nil {
		t.Fatalf("%s: %v", with, err)
	}
	return e.planTopology("q", cc.SelectText, cc.Select, cfg)
}

// TestPlanTopology pins the planner's decision ladder: every row of the
// documented fallback matrices (README: routing, partitioned execution,
// windows, joins) maps SQL × stream layout × options to one topology.
func TestPlanTopology(t *testing.T) {
	e := topoEngine(t)
	const (
		filterF = "SELECT * FROM [SELECT * FROM f] AS x WHERE x.v > 3"
		filterS = "SELECT * FROM [SELECT * FROM s] AS x WHERE x.v > 3"
		tableF  = "SELECT x.k AS k, ref.name AS name FROM [SELECT * FROM f] AS x JOIN ref ON x.k = ref.k"
		tableS  = "SELECT x.k AS k, ref.name AS name FROM [SELECT * FROM s] AS x JOIN ref ON x.k = ref.k"
		joinFl  = "SELECT a.k AS k FROM [SELECT * FROM fl] AS a JOIN [SELECT * FROM fr] AS b ON a.k = b.k"
		joinLR  = "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k = b.k"
	)
	routed, shared := "strategy = routed", "strategy = shared"
	cases := []struct {
		name, sql string
		with      string

		strategy  Strategy
		routed    bool
		lanes     int
		merge     mergeKind
		reagg     bool // merge runs a plan over the union (vs concatenation)
		inputs    []inputKind
		mode      factory.InputMode
		window    bool
		joinState bool
	}{
		// Flat arrangements per strategy.
		{name: "separate", sql: filterF, strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned},
		{name: "shared", sql: filterF, with: shared, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},
		{name: "chained", sql: "SELECT * FROM [SELECT * FROM up_out] AS x", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inChained}, mode: factory.Owned},
		{name: "chained shared", sql: "SELECT * FROM [SELECT * FROM up_out] AS x", with: shared, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inChained}, mode: factory.Shared},

		// Routing matrix: one eligible shape, everything else degrades to shared.
		{name: "routed filter", sql: filterF, with: routed, strategy: RoutedScan, routed: true, inputs: []inputKind{inPrimary}, mode: factory.Shared},
		{name: "routed aggregate", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM f] AS x", with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},
		{name: "routed filtered scan", sql: "SELECT * FROM [SELECT * FROM f WHERE v > 3] AS x", with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},
		{name: "routed windowed", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM f] AS x WINDOW ROWS 4 SLIDE 4", with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared, window: true},
		{name: "routed table join", sql: tableF, with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared, joinState: true},
		{name: "routed stream join", sql: joinFl, with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary, inPrimary}, mode: factory.Shared, joinState: true},
		{name: "routed chained", sql: "SELECT * FROM [SELECT * FROM up_out] AS x", with: routed, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inChained}, mode: factory.Shared},
		{name: "routed partitioned stream", sql: filterS, with: routed, strategy: SharedBaskets, lanes: 4, merge: mergePlain, inputs: []inputKind{inShard}, mode: factory.Shared},
		{name: "routed min_tuples", sql: filterF, with: routed + ", min_tuples = 8", strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},
		{name: "routed shed_limit", sql: filterF, with: routed + ", shed_limit = 8", strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},

		// Partitioned execution: decomposable plans shard, the rest stay flat.
		{name: "sharded filter", sql: filterS, strategy: SeparateBaskets, lanes: 4, merge: mergePlain, inputs: []inputKind{inShard}, mode: factory.Shared},
		{name: "sharded aligned group", sql: "SELECT x.k, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.k", strategy: SeparateBaskets, lanes: 4, merge: mergePlain, inputs: []inputKind{inShard}, mode: factory.Shared},
		{name: "sharded reaggregate", sql: "SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.g", strategy: SeparateBaskets, lanes: 4, merge: mergePlain, reagg: true, inputs: []inputKind{inShard}, mode: factory.Shared},
		{name: "sharded distinct", sql: "SELECT DISTINCT x.v FROM [SELECT * FROM s] AS x", strategy: SeparateBaskets, lanes: 4, merge: mergePlain, reagg: true, inputs: []inputKind{inShard}, mode: factory.Shared},
		{name: "avg stays flat", sql: "SELECT AVG(x.v) AS a FROM [SELECT * FROM s] AS x", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned},
		{name: "order by stays flat", sql: "SELECT * FROM [SELECT * FROM s] AS x ORDER BY x.v", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned},
		{name: "shed_limit stays flat", sql: filterS, with: "shed_limit = 8", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned},
		{name: "shared on partitioned stays flat when undecomposable", sql: "SELECT AVG(x.v) AS a FROM [SELECT * FROM s] AS x", with: shared, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary}, mode: factory.Shared},

		// Windows on a partitioned stream.
		{name: "window aligned", sql: "SELECT x.k, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.k WINDOW RANGE 100 SLIDE 50", strategy: SeparateBaskets, lanes: 4, merge: mergePlain, inputs: []inputKind{inShard}, mode: factory.Shared, window: true},
		{name: "window reaggregate", sql: "SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 50", strategy: SeparateBaskets, lanes: 4, merge: mergeWindowed, reagg: true, inputs: []inputKind{inShard}, mode: factory.Shared, window: true},
		{name: "window scalar", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100", strategy: SeparateBaskets, lanes: 4, merge: mergeWindowed, reagg: true, inputs: []inputKind{inShard}, mode: factory.Shared, window: true},
		{name: "count window stays flat", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW ROWS 8 SLIDE 8", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, window: true},
		{name: "ragged slide stays flat", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 30", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, window: true},
		{name: "window avg non-aligned stays flat", sql: "SELECT x.g, AVG(x.v) AS av FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, window: true},
		{name: "row-preserving window stays flat", sql: "SELECT x.v FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 100", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, window: true},
		{name: "window on flat stream", sql: "SELECT SUM(x.v) AS sv FROM [SELECT * FROM f] AS x WINDOW RANGE 100", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, window: true},

		// Joins.
		{name: "table join flat", sql: tableF, strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica}, mode: factory.Owned, joinState: true},
		{name: "table join broadcast", sql: tableS, strategy: SeparateBaskets, lanes: 4, merge: mergePlain, inputs: []inputKind{inShard}, mode: factory.Shared, joinState: true},
		{name: "stream join flat", sql: joinFl, strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica, inReplica}, mode: factory.Owned, joinState: true},
		{name: "stream join shared", sql: joinFl, with: shared, strategy: SharedBaskets, lanes: 1, inputs: []inputKind{inPrimary, inPrimary}, mode: factory.Shared, joinState: true},
		{name: "stream join co-partitioned", sql: joinLR, strategy: SeparateBaskets, lanes: 2, merge: mergePlain, inputs: []inputKind{inShard, inShard}, mode: factory.Shared, joinState: true},
		{name: "stream join co-partitioned shed", sql: joinLR, with: "shed_limit = 8", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica, inReplica}, mode: factory.Owned, joinState: true},
		{name: "stream join half-partitioned", sql: "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM fr] AS b ON a.k = b.k", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica, inReplica}, mode: factory.Owned, joinState: true},
		{name: "stream join off the partition key", sql: "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.v = b.v", strategy: SeparateBaskets, lanes: 1, inputs: []inputKind{inReplica, inReplica}, mode: factory.Owned, joinState: true},
	}
	before := netFootprint(e)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, err := planFor(t, e, c.sql, c.with)
			if err != nil {
				t.Fatal(err)
			}
			var kinds []inputKind
			for _, in := range topo.inputs {
				kinds = append(kinds, in.kind)
				if in.mode != c.mode {
					t.Errorf("input %s mode = %v, want %v", in.bind, in.mode, c.mode)
				}
			}
			got := fmt.Sprintf("strategy=%s routed=%t lanes=%d merge=%d reagg=%t inputs=%v window=%t join=%t",
				topo.cfg.strategy, topo.routed != nil, topo.lanes, topo.merge, topo.mergePlan != nil, kinds, topo.window != nil, topo.join != nil)
			want := fmt.Sprintf("strategy=%s routed=%t lanes=%d merge=%d reagg=%t inputs=%v window=%t join=%t",
				c.strategy, c.routed, c.lanes, c.merge, c.reagg, c.inputs, c.window, c.joinState)
			if got != want {
				t.Errorf("topology\n got %s\nwant %s", got, want)
			}
		})
	}

	// Typed planning errors survive the move into the planner.
	for _, c := range []struct {
		name, sql string
		with      string
		want      error
	}{
		{"not continuous", "SELECT * FROM ref", "", ErrNotContinuous},
		{"unknown stream", "SELECT * FROM [SELECT * FROM nope] AS x", "", ErrUnknownStream},
		{"basket expression over a table", "SELECT * FROM [SELECT * FROM ref] AS x", "", ErrUnknownStream},
		{"lateness without a range window", filterF, "timestamp = et", ErrInvalidOption},
		{"self join", "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM l] AS b ON a.k = b.k", "", ErrSelfJoin},
		{"windowed stream join", joinFl + " WINDOW ROWS 4", "", ErrUnsupportedJoin},
		{"non-equi stream join", "SELECT a.k AS k FROM [SELECT * FROM fl] AS a JOIN [SELECT * FROM fr] AS b ON a.k < b.k", "", ErrUnsupportedJoin},
		{"stream join timestamp without WITHIN", joinFl, "timestamp = et", ErrInvalidOption},
	} {
		if _, err := planFor(t, e, c.sql, c.with); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if after := netFootprint(e); after != before {
		t.Errorf("planning changed engine state:\nbefore %s\nafter  %s", before, after)
	}
}

// TestInstallFailureLeavesNothing fails install at each step that can
// fail — the <q>_out registration, a lane sink registration, the window
// runner build, the join-state build — for every shape that reaches the
// step, and checks the undo stack removed every trace of the attempt.
func TestInstallFailureLeavesNothing(t *testing.T) {
	errBoom := errors.New("boom")
	takeName := func(name string) func(*testing.T, *Engine, *topology) {
		return func(t *testing.T, e *Engine, _ *topology) {
			if err := e.cat.Register(name, catalog.KindTable, e.tables["ref"]); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = e.cat.Drop(name) })
		}
	}
	failJoinAt := func(lane int) func(*testing.T, *Engine, *topology) {
		return func(_ *testing.T, _ *Engine, topo *topology) {
			build, calls := topo.join, 0
			topo.join = func() (*exec.StreamJoin, error) {
				if calls++; calls > lane {
					return nil, errBoom
				}
				return build()
			}
		}
	}
	const (
		filterS = "SELECT * FROM [SELECT * FROM s] AS x WHERE x.v > 3"
		windowS = "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100"
		alignS  = "SELECT x.k, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.k WINDOW RANGE 100"
		joinLR  = "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k = b.k"
		joinFl  = "SELECT a.k AS k FROM [SELECT * FROM fl] AS a JOIN [SELECT * FROM fr] AS b ON a.k = b.k"
		tableS  = "SELECT x.k AS k, ref.name AS name FROM [SELECT * FROM s] AS x JOIN ref ON x.k = ref.k"
	)
	cases := []struct {
		name, sql string
		with      string
		sabotage  func(*testing.T, *Engine, *topology)
		want      error
	}{
		{"flat: out taken", "SELECT * FROM [SELECT * FROM f] AS x", "", takeName("q_out"), ErrDuplicateName},
		{"shared: out taken", "SELECT * FROM [SELECT * FROM f] AS x", "strategy = shared", takeName("q_out"), ErrDuplicateName},
		{"routed: out taken", "SELECT * FROM [SELECT * FROM f] AS x", "strategy = routed", takeName("q_out"), ErrDuplicateName},
		{"sharded: out taken", filterS, "", takeName("q_out"), ErrDuplicateName},
		{"sharded: first tail taken", filterS, "", takeName("q_out#0"), ErrDuplicateName},
		{"sharded: last tail taken", filterS, "", takeName("q_out#3"), ErrDuplicateName},
		{"windowed merge: shard basket taken", windowS, "", takeName("q_out#2"), ErrDuplicateName},
		{"aligned window: tail taken", alignS, "", takeName("q_out#1"), ErrDuplicateName},
		{"co-partitioned join: tail taken", joinLR, "", takeName("q_out#1"), ErrDuplicateName},
		{"flat window: runner build fails", "SELECT SUM(x.v) AS sv FROM [SELECT * FROM f] AS x WINDOW RANGE 100", "timestamp = nosuch", nil, ErrInvalidOption},
		{"sharded window: runner build fails", windowS, "timestamp = nosuch", nil, ErrInvalidOption},
		{"flat join: state build fails", joinFl, "", failJoinAt(0), errBoom},
		{"shared join: state build fails", joinFl, "strategy = shared", failJoinAt(0), errBoom},
		{"co-partitioned join: second lane's state fails", joinLR, "", failJoinAt(1), errBoom},
		{"broadcast join: third lane's state fails", tableS, "", failJoinAt(2), errBoom},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := topoEngine(t)
			before := netFootprint(e)
			topo, err := planFor(t, e, c.sql, c.with)
			if err != nil {
				t.Fatal(err)
			}
			if c.sabotage != nil {
				c.sabotage(t, e, topo)
				// The sabotage itself may add a catalog entry; it is
				// part of the baseline.
				before = netFootprint(e)
			}
			if _, err := e.install(topo); !errors.Is(err, c.want) {
				t.Fatalf("install err = %v, want %v", err, c.want)
			}
			if after := netFootprint(e); after != before {
				t.Errorf("failed install leaked state:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestDropRestoresFootprint: DROP is the same undo stack, so a
// successful install followed by a drop must leave the engine exactly as
// it was — for every shape.
func TestDropRestoresFootprint(t *testing.T) {
	e := topoEngine(t)
	const openWindow = "CREATE CONTINUOUS QUERY q AS SELECT COUNT(*) AS n FROM [SELECT * FROM f] AS x WINDOW RANGE 3600000000000"
	for _, ddl := range []string{
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM f] AS x",
		"CREATE CONTINUOUS QUERY q WITH (strategy = shared) AS SELECT * FROM [SELECT * FROM f] AS x",
		"CREATE CONTINUOUS QUERY q WITH (strategy = routed) AS SELECT * FROM [SELECT * FROM f] AS x WHERE x.v > 1",
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM up_out] AS x",
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x",
		"CREATE CONTINUOUS QUERY q AS SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100",
		openWindow,
		"CREATE CONTINUOUS QUERY q AS SELECT a.k AS k FROM [SELECT * FROM fl] AS a JOIN [SELECT * FROM fr] AS b ON a.k = b.k",
		"CREATE CONTINUOUS QUERY q AS SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k = b.k",
	} {
		before := netFootprint(e)
		if _, err := e.Exec(context.Background(), ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if netFootprint(e) == before {
			t.Fatalf("%s: install left no footprint; the probe is blind", ddl)
		}
		if ddl == openWindow {
			// A tuple in a window an hour long arms the query's timer.
			if err := e.Ingest(context.Background(), "f", [][]vector.Value{{vector.NewInt(1), vector.NewInt(1), vector.NewInt(1), vector.NewInt(1)}}); err != nil {
				t.Fatal(err)
			}
			e.Drain()
			if n := armedTimers(e.Queries()...); n != 1 {
				t.Fatalf("%s: %d timers armed with a window open, want 1", ddl, n)
			}
		}
		q, _ := e.Query("q")
		if _, err := e.Exec(context.Background(), "DROP CONTINUOUS QUERY q"); err != nil {
			t.Fatalf("%s: drop: %v", ddl, err)
		}
		if armedTimers(q) != 0 {
			t.Errorf("%s: the drop left the query's timer armed", ddl)
		}
		if after := netFootprint(e); after != before {
			t.Errorf("%s: create+drop changed engine state:\nbefore %s\nafter  %s", ddl, before, after)
		}
	}
}

// TestConcurrentDuplicateCreate races N registrations of one name per
// shape: exactly one wins, every loser reports ErrDuplicateQuery without
// having touched anything keyed by the name (the winner's catalog
// entries, its shared-reader marks, its transitions), and dropping the
// winner restores the pre-race footprint — so no loser leaked anything
// either.
func TestConcurrentDuplicateCreate(t *testing.T) {
	const racers = 8
	for _, c := range []struct {
		name, sql string
		with      string
	}{
		{"separate", "SELECT * FROM [SELECT * FROM f] AS x", ""},
		{"shared", "SELECT * FROM [SELECT * FROM f] AS x", "strategy = shared"},
		{"routed", "SELECT * FROM [SELECT * FROM f] AS x WHERE x.v > 1", "strategy = routed"},
		{"sharded", "SELECT * FROM [SELECT * FROM s] AS x", ""},
		{"windowed merge", "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100", ""},
		{"co-partitioned join", "SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k = b.k", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := topoEngine(t)
			if err := e.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer stopQuiet(e)
			before := netFootprint(e)

			var wg sync.WaitGroup
			errs := make([]error, racers)
			start := make(chan struct{})
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					_, errs[i] = register(e, "dup", c.with, c.sql)
				}()
			}
			close(start)
			wg.Wait()

			winners := 0
			for _, err := range errs {
				switch {
				case err == nil:
					winners++
				case !errors.Is(err, ErrDuplicateQuery):
					t.Errorf("loser failed with %v, want ErrDuplicateQuery", err)
				}
			}
			if winners != 1 {
				t.Fatalf("%d winners, want exactly 1", winners)
			}
			// The winner is intact: a second footprint equals a lone
			// registration's, which the drop below proves by symmetry.
			if _, err := e.Query("dup"); err != nil {
				t.Fatal(err)
			}
			if err := dropQuery(e, "dup"); err != nil {
				t.Fatal(err)
			}
			if after := netFootprint(e); after != before {
				t.Errorf("race leaked state:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestConcurrentDuplicateDrop: of N concurrent drops of one query
// exactly one runs the undo stack.
func TestConcurrentDuplicateDrop(t *testing.T) {
	e := topoEngine(t)
	if _, err := register(e, "q", "", "SELECT * FROM [SELECT * FROM f] AS x"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dropQuery(e, "q")
		}()
	}
	wg.Wait()
	dropped := 0
	for _, err := range errs {
		switch {
		case err == nil:
			dropped++
		case !errors.Is(err, ErrUnknownQuery):
			t.Errorf("loser failed with %v, want ErrUnknownQuery", err)
		}
	}
	if dropped != 1 {
		t.Fatalf("%d drops succeeded, want exactly 1", dropped)
	}
}

// TestRestoreShapeMismatch: a checkpoint image taken from a differently
// shaped topology must surface as ErrCheckpointMismatch — never a panic,
// never a silent partial load.
func TestRestoreShapeMismatch(t *testing.T) {
	e := topoEngine(t)
	reg := func(name, text, with string) *Query {
		q, err := register(e, name, with, text)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	flat := reg("flat", "SELECT * FROM [SELECT * FROM f] AS x", "")
	routed := reg("routed", "SELECT * FROM [SELECT * FROM f] AS x WHERE x.v > 1", "strategy = routed")
	lanes := reg("lanes", "SELECT * FROM [SELECT * FROM s] AS x", "")
	buckets := reg("buckets", "SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100", "")
	beyond, flatAsRouted := routed.captureState(), flat.captureState()
	beyond.Routed = &routedImage{Consumed: 5, Join: 0} // the restored basket holds no rows
	flatAsRouted.Routed = &routedImage{}
	strayBuckets, noMerge := lanes.captureState(), lanes.captureState()
	strayBuckets.Merge.Pending = map[int64][]*vector.Vector{100: {vector.New(vector.Int64)}}
	noMerge.Merge = nil
	for _, c := range []struct {
		name string
		into *Query
		img  ckptQuery
	}{
		{"sharded image into a flat query", flat, lanes.captureState()},
		{"flat image into a sharded query", lanes, flat.captureState()},
		{"untagged lane sinks into window-tagged ones", buckets, lanes.captureState()},
		{"window-tagged lane sinks into untagged ones", lanes, buckets.captureState()},
		{"window buckets for a merge that keeps none", lanes, strayBuckets},
		{"no merge state for a sharded query", lanes, noMerge},
		{"no routed state for a routed query", routed, ckptQuery{Baskets: routed.captureState().Baskets}},
		{"routed state for a flat query", flat, flatAsRouted},
		{"routed frontier beyond the restored content", routed, beyond},
	} {
		err := e.restoreImage(&ckptImage{Queries: map[string]ckptQuery{strings.ToLower(c.into.Name): c.img}})
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", c.name, err)
		}
	}
}

// TestEarlierImageLayoutRefused: an image written before lane sinks became
// baskets lists a query's places as a basket-or-tail union under "Places".
// gob drops fields the receiving struct lacks, so such an image decodes
// without complaint; Open must refuse it rather than restore the query
// with empty places.
func TestEarlierImageLayoutRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	e := openDurable(t, dir)
	for _, stmt := range []string{
		"CREATE BASKET s (k INT, v INT) WITH (partitions = 2, partition_by = k)",
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.v > 0",
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	ingestPairs(t, e, "s", [][2]int64{{1, 1}, {2, 2}, {3, 3}})
	e.Drain()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, ckptSubdir)
	seq, payload, err := checkpoint.Latest(ckptDir, math.MaxInt64)
	if err != nil || payload == nil {
		t.Fatalf("no clean-shutdown image: %v", err)
	}
	img, err := decodeImage(payload)
	if err != nil {
		t.Fatal(err)
	}

	// The same image in the earlier layout (field names are what gob
	// matches on; the type names are free).
	type tailImage struct {
		Batches [][]*vector.Vector
		TS      []int64
	}
	type placeImage struct {
		Basket *basketImage
		Tail   *tailImage
	}
	type earlierQuery struct {
		Delivered int64
		Places    []placeImage
		Facts     []*factory.State
		Routed    *routedImage
	}
	type earlierImage struct {
		WALSeq  int64
		Clean   bool
		DDL     []string
		Tables  map[string][]*vector.Vector
		Streams map[string]ckptStream
		Queries map[string]earlierQuery
	}
	old := earlierImage{WALSeq: img.WALSeq, Clean: img.Clean, DDL: img.DDL, Tables: img.Tables, Streams: img.Streams,
		Queries: map[string]earlierQuery{}}
	for name, cq := range img.Queries {
		eq := earlierQuery{Delivered: cq.Delivered, Facts: cq.Facts}
		for i := range cq.Baskets {
			if i == 0 { // <q>_out; the rest were tails
				eq.Places = append(eq.Places, placeImage{Basket: &cq.Baskets[i]})
			} else {
				eq.Places = append(eq.Places, placeImage{Tail: &tailImage{}})
			}
		}
		old.Queries[name] = eq
	}
	if len(old.Queries["q"].Places) != 3 {
		t.Fatalf("image lists %d places for q, want <q>_out and two lane sinks", len(old.Queries["q"].Places))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(ckptDir, seq, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, Config{DataDir: dir, CheckpointInterval: -1}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("Open over an earlier-layout image: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCascadeFailureLeavesNothing: a cascade that fails at stage i — an
// attribute the stream lacks, or a <c>_s<i>_out name somebody holds — has
// by then built stages 0..i-1; all of it (catalog entries, subscriptions,
// the claimed name) must be gone, and the name reusable.
func TestCascadeFailureLeavesNothing(t *testing.T) {
	e := topoEngine(t)
	if _, err := e.Exec(context.Background(), "CREATE BASKET c_s2_out (k INT)"); err != nil {
		t.Fatal(err)
	}
	before := netFootprint(e)
	stage := func(lo int64) CascadePredicate {
		return CascadePredicate{Attr: "v", Lo: vector.NewInt(lo), Hi: vector.NewInt(lo + 10)}
	}
	for failAt := 0; failAt < 3; failAt++ {
		preds := []CascadePredicate{stage(0), stage(10), stage(20)}
		preds[failAt].Attr = "nosuch"
		if _, err := e.RegisterCascade("bad", "f", preds); err == nil {
			t.Fatalf("unknown attribute at stage %d: registration succeeded", failAt)
		}
		if after := netFootprint(e); after != before {
			t.Errorf("unknown attribute at stage %d leaked state:\nbefore %s\nafter  %s", failAt, before, after)
		}
	}
	if _, err := e.RegisterCascade("c", "f", []CascadePredicate{stage(0), stage(10), stage(20)}); err == nil {
		t.Fatal("taken c_s2_out: registration succeeded")
	}
	if after := netFootprint(e); after != before {
		t.Errorf("taken output name at stage 2 leaked state:\nbefore %s\nafter  %s", before, after)
	}
	if _, err := e.RegisterCascade("bad", "f", []CascadePredicate{stage(0)}); err != nil {
		t.Fatalf("name of a failed cascade is not reusable: %v", err)
	}
	if netFootprint(e) == before {
		t.Fatal("a successful cascade left no footprint; the probe is blind")
	}
}

// TestConcurrentDuplicateCascade: of N concurrent registrations of one
// cascade name exactly one wins, and what remains is that cascade's
// footprint and nothing of the losers'.
func TestConcurrentDuplicateCascade(t *testing.T) {
	preds := []CascadePredicate{
		{Attr: "v", Lo: vector.NewInt(0), Hi: vector.NewInt(10)},
		{Attr: "v", Lo: vector.NewInt(10), Hi: vector.NewInt(20)},
	}
	lone := topoEngine(t)
	if _, err := lone.RegisterCascade("dup", "f", preds); err != nil {
		t.Fatal(err)
	}
	want := netFootprint(lone)

	e := topoEngine(t)
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer stopQuiet(e)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	start := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = e.RegisterCascade("dup", "f", preds)
		}()
	}
	close(start)
	wg.Wait()
	winners := 0
	for _, err := range errs {
		switch {
		case err == nil:
			winners++
		case !errors.Is(err, ErrDuplicateQuery):
			t.Errorf("loser failed with %v, want ErrDuplicateQuery", err)
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners, want exactly 1", winners)
	}
	if got := netFootprint(e); got != want {
		t.Errorf("race left more than one cascade's footprint:\ngot  %s\nwant %s", got, want)
	}
}
