package datacell

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// explainAnalyze renders a continuous query's live pipeline topology as
// a relation: one row per operator (inputs, shard factories with their
// compiled plan nodes, merge stage, lane sinks, output basket, emitter),
// annotated with cumulative tuple counters. The row order follows the
// dataflow: source streams, then shard pipelines, then recombination,
// then delivery.
func (e *Engine) explainAnalyze(name string) (*storage.Relation, error) {
	q, err := e.Query(name)
	if err != nil {
		return nil, err
	}
	rel := storage.NewRelation(catalog.NewSchema(
		catalog.Column{Name: "operator", Type: vector.String},
		catalog.Column{Name: "name", Type: vector.String},
		catalog.Column{Name: "shard", Type: vector.Int64},
		catalog.Column{Name: "detail", Type: vector.String},
		catalog.Column{Name: "tuples_in", Type: vector.Int64},
		catalog.Column{Name: "tuples_out", Type: vector.Int64},
		catalog.Column{Name: "firings", Type: vector.Int64},
		catalog.Column{Name: "backlog", Type: vector.Int64},
	))
	nullInt := vector.NullValue(vector.Int64)
	row := func(op, name string, shard vector.Value, detail string, in, out, firings, backlog vector.Value) {
		rel.AppendRow([]vector.Value{
			vector.NewString(op), vector.NewString(name), shard,
			vector.NewString(detail), in, out, firings, backlog,
		})
	}
	n := func(v int64) vector.Value { return vector.NewInt(v) }

	// Query header: shape and strategy as the planner decided them, plus
	// the pipeline-wide totals.
	topo, shape := q.topo, "flat"
	switch {
	case partition.InspectJoin(topo.plan).Joins > 0:
		shape = "join"
	case topo.window != nil:
		shape = "windowed"
	}
	if topo.merge != mergeNone {
		shape += fmt.Sprintf(", %d shards", topo.lanes)
	}
	total := q.Stats()
	row("query", q.Name, nullInt,
		fmt.Sprintf("strategy=%s shape=%s", q.arrangement(), shape),
		n(total.TuplesIn), n(total.TuplesOut), n(total.Firings), nullInt)

	// Source streams with their arrival counters and primary backlog.
	for _, sn := range topo.streams {
		s, err := e.lookupStream(sn)
		if err != nil {
			continue // a chained query reads a basket, not a stream
		}
		e.mu.Lock()
		ingested := s.ingested
		e.mu.Unlock()
		row("stream", s.name, nullInt,
			fmt.Sprintf("shards=%d", max(len(s.shards), 1)),
			nullInt, n(ingested), nullInt, n(int64(s.primary.Len())))
	}

	// Shard pipelines: one factory row per shard (shard NULL when the
	// query is unpartitioned), each followed by its compiled plan tree.
	for i, f := range q.facts {
		shard := nullInt
		if q.Partitioned() {
			shard = n(int64(i))
		}
		st := f.Stats()
		detail := ""
		if wm := f.WindowFrontier(); wm != math.MinInt64 {
			detail = fmt.Sprintf("watermark=%d late=%d", wm, st.Late)
		}
		if st.JoinState > 0 || st.JoinEvictions > 0 {
			if detail != "" {
				detail += " "
			}
			detail += fmt.Sprintf("join_state=%d evictions=%d", st.JoinState, st.JoinEvictions)
		}
		row("factory", f.Name(), shard, detail,
			n(st.TuplesIn), n(st.TuplesOut), n(st.Firings), nullInt)
		if i == 0 || !q.Partitioned() {
			// The compiled plan is identical across shard pipelines;
			// render it once under the first factory.
			for _, line := range strings.Split(strings.TrimRight(plan.Explain(f.Plan()), "\n"), "\n") {
				row("plan", strings.TrimLeft(line, " "), shard,
					line, nullInt, nullInt, nullInt, nullInt)
			}
		}
	}

	// Routed queries: the shared scan transition, the query's routing
	// anchor in the predicate index, and the shared plan group it belongs
	// to (evaluated once per matched batch, fanned out to all members).
	if r := q.routed; r != nil {
		sc, g := r.scan, r.group
		row("scan", sc.name, nullInt,
			fmt.Sprintf("shared members=%d groups=%d index=%d rows_evaluated=%d", sc.memberCount.Load(), sc.groupCount(), sc.idx.Len(), sc.evaluated.Load()),
			n(sc.rows.Load()), nullInt, n(sc.batches.Load()), n(int64(sc.primary.Len())))
		row("route", q.Name, nullInt,
			fmt.Sprintf("anchor=%s group_members=%d group_evals=%d", g.pred.Describe(), len(*g.members.Load()), g.evals.Load()),
			nullInt, nullInt, nullInt, nullInt)
		for _, line := range strings.Split(strings.TrimRight(plan.Explain(g.node), "\n"), "\n") {
			row("plan", strings.TrimLeft(line, " "), nullInt,
				line, nullInt, nullInt, nullInt, nullInt)
		}
	}

	// Recombination: the merge transition and the lane sinks feeding it.
	if q.merge != nil {
		lag, merged := q.merge.Lag(), n(q.merge.Merged())
		row("merge", q.merge.Name(), nullInt, fmt.Sprintf("lag=%d", lag), merged, merged, nullInt, n(int64(lag)))
	}
	for lane, b := range q.sinks {
		chunks, resident, dropped, _ := b.Stats()
		row("tail", b.Name(), n(int64(lane)), fmt.Sprintf("chunks=%d", chunks),
			nullInt, n(dropped), nullInt, n(int64(resident)))
	}

	// Delivery: output basket and (when subscribed) the emitter.
	_, resident, dropped, _ := q.out.Stats()
	row("output", q.out.Name(), nullInt, "", nullInt, n(dropped), nullInt, n(int64(resident)))
	if q.sub != nil {
		em := q.sub.em
		detail := fmt.Sprintf("policy=%s dropped_batches=%d", em.Policy(), em.Dropped())
		if q.routed != nil {
			// Batches the scan handed straight to the subscription, and
			// batches that went through <q>_out instead.
			handoff, overflow := em.Dispositions()
			detail += fmt.Sprintf(" handoff=%d overflow=%d", handoff, overflow)
		}
		// Delivery is no transition: its firings are the batches it sent.
		row("deliver", em.Name(), nullInt, detail,
			nullInt, n(em.Delivered()), n(em.Batches()), nullInt)
	}
	return rel, nil
}
