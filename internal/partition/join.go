// Join partitioning analysis: InspectJoin classifies the join structure
// of a continuous-query plan, and AnalyzeJoin decides whether the join
// can run as N parallel shard pipelines:
//
//   - Co-partitioned (stream ⋈ stream): both streams are hash-partitioned
//     on their join key with the same shard count, so two matching tuples
//     always land on the same shard index — shard i joins a#i with b#i
//     and the emissions concatenate.
//   - Broadcast (stream ⋈ table): each shard joins its subset of the
//     stream against the whole table; since every stream tuple lives in
//     exactly one shard, concatenation is again exact, whatever the key.
//
// Everything else (multi-way joins, aggregation above a join, non-equi
// conditions, unpartitioned or differently-sharded streams) falls back to
// a single pipeline, with the reason recorded for diagnostics.
package partition

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// JoinShape classifies the join structure of a plan.
type JoinShape struct {
	// Joins is the number of Join nodes in the plan.
	Joins int
	// Join is the single join node (nil unless Joins == 1).
	Join *plan.Join
	// RowPreserving reports that no Aggregate, Distinct, or Sort appears
	// anywhere in the plan, so shard emissions concatenate exactly.
	RowPreserving bool
	// LeftStream / RightStream are the consuming (stream) scans of the
	// join's two inputs, nil when a side has none or several.
	LeftStream, RightStream *plan.Scan
	// LeftTablesOnly / RightTablesOnly report that every scan on that
	// side is a non-consuming table scan.
	LeftTablesOnly, RightTablesOnly bool
}

// InspectJoin walks a compiled plan and classifies its joins.
func InspectJoin(p plan.Node) JoinShape {
	shape := JoinShape{RowPreserving: true}
	plan.Walk(p, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Aggregate, *plan.Distinct, *plan.Sort:
			shape.RowPreserving = false
		case *plan.Join:
			shape.Joins++
			shape.Join = x
		}
	})
	if shape.Joins != 1 {
		shape.Join = nil
		return shape
	}
	shape.LeftStream, shape.LeftTablesOnly = classifySide(shape.Join.L)
	shape.RightStream, shape.RightTablesOnly = classifySide(shape.Join.R)
	return shape
}

// classifySide reports the single consuming scan of one join input (nil
// when none or several) and whether the side reads tables only.
func classifySide(side plan.Node) (stream *plan.Scan, tablesOnly bool) {
	streams := 0
	tablesOnly = true
	plan.Walk(side, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok && sc.Consuming {
			streams++
			stream = sc
			tablesOnly = false
		}
	})
	if streams != 1 {
		stream = nil
	}
	return stream, tablesOnly
}

// JoinAnalysis is AnalyzeJoin's verdict.
type JoinAnalysis struct {
	// OK reports whether the join can run sharded; when false, Reason
	// says why and the engine falls back to a single pipeline.
	OK     bool
	Reason string
	// Broadcast marks the stream×table decomposition (the table side is
	// read whole by every shard); otherwise the join is co-partitioned
	// stream×stream.
	Broadcast bool
	// StreamSide says which join input is the stream ('L' or 'R') for
	// broadcast joins.
	StreamSide byte
	// LeftStream / RightStream name the two streams of a co-partitioned
	// join; Stream names the broadcast join's stream.
	LeftStream, RightStream string
	Stream                  string
	// Shards is the pipeline fan-out.
	Shards int
}

func joinFallback(reason string) JoinAnalysis { return JoinAnalysis{Reason: reason} }

// AnalyzeJoin decides the shard decomposition of a join plan. lookup
// resolves a stream name to its partitioning spec (ok=false for
// unpartitioned streams).
func AnalyzeJoin(p plan.Node, lookup func(stream string) (Spec, bool)) JoinAnalysis {
	shape := InspectJoin(p)
	switch {
	case shape.Joins == 0:
		return joinFallback("plan has no join")
	case shape.Joins > 1:
		return joinFallback("multi-way joins run on one pipeline")
	case !shape.RowPreserving:
		return joinFallback("aggregation, DISTINCT, or ORDER BY above a join needs tuples from every shard")
	}
	j := shape.Join
	lw := j.L.Schema().Len()
	var lkey, rkey expr.Expr
	if j.On != nil {
		lkey, rkey, _ = expr.EquiKeys(j.On, lw)
	}

	// Stream ⋈ stream: co-partitioned when both sides are hash-sharded on
	// their join key with the same fan-out.
	if shape.LeftStream != nil && shape.RightStream != nil {
		lspec, lok := lookup(shape.LeftStream.Source)
		rspec, rok := lookup(shape.RightStream.Source)
		switch {
		case !lok || !rok:
			return joinFallback("both join streams must be partitioned")
		case lspec.Shards != rspec.Shards:
			return joinFallback(fmt.Sprintf("shard counts differ (%d vs %d)", lspec.Shards, rspec.Shards))
		case lspec.By == "" || rspec.By == "":
			return joinFallback("round-robin streams cannot co-partition a join")
		case lkey == nil:
			return joinFallback("co-partitioning needs an equi-join conjunct")
		case !keyMatches(lkey, j.L, shape.LeftStream, lspec.By):
			return joinFallback(fmt.Sprintf("left join key is not the partition column %q", lspec.By))
		case !keyMatches(rkey, j.R, shape.RightStream, rspec.By):
			return joinFallback(fmt.Sprintf("right join key is not the partition column %q", rspec.By))
		case !coHashed(lkey.Type(), rkey.Type()):
			return joinFallback(fmt.Sprintf("join keys %s = %s compare as %s, which the router does not hash alike on both streams",
				lkey.Type(), rkey.Type(), algebra.JoinKeyType(lkey.Type(), rkey.Type())))
		}
		return JoinAnalysis{OK: true,
			LeftStream:  shape.LeftStream.Source,
			RightStream: shape.RightStream.Source,
			Shards:      lspec.Shards,
		}
	}

	// Stream ⋈ table: broadcast the table side to every shard pipeline.
	var stream *plan.Scan
	var side byte
	switch {
	case shape.LeftStream != nil && shape.RightTablesOnly:
		stream, side = shape.LeftStream, 'L'
	case shape.RightStream != nil && shape.LeftTablesOnly:
		stream, side = shape.RightStream, 'R'
	default:
		return joinFallback("join sides are neither two streams nor stream×table")
	}
	spec, ok := lookup(stream.Source)
	if !ok {
		return joinFallback(fmt.Sprintf("stream %q is not partitioned", stream.Source))
	}
	if lkey == nil {
		return joinFallback("broadcast joins need an equi-join conjunct")
	}
	return JoinAnalysis{OK: true, Broadcast: true, StreamSide: side,
		Stream: stream.Source, Shards: spec.Shards}
}

// coHashed reports whether two join keys that compare equal always share
// a shard index. The join compares them in algebra.JoinKeyType's domain,
// but the router hashes each stream's stored value, so both stored types
// must hash as that domain does.
func coHashed(l, r vector.Type) bool {
	u := algebra.JoinKeyType(l, r)
	return hashDomain(l) == hashDomain(u) && hashDomain(r) == hashDomain(u)
}

// keyMatches reports whether a join key expression is exactly the named
// source column of the side's stream scan. The key is resolved in the
// side's output frame; sideMapping traces it through Select/Project
// chains back to the scan's (possibly pruned) column list.
func keyMatches(key expr.Expr, side plan.Node, sc *plan.Scan, column string) bool {
	cr, ok := key.(*expr.ColRef)
	if !ok {
		return false
	}
	srcIdx := sideMapping(side, cr.Index)
	if srcIdx < 0 {
		return false
	}
	return strings.EqualFold(sc.Src.Columns[srcIdx].Name, column)
}

// sideMapping maps a column of a join input's output frame to the
// underlying scan's source-schema position (-1 when the chain is not a
// recognizable Select/Project chain over one scan, or the column is
// computed).
func sideMapping(n plan.Node, col int) int {
	for {
		switch x := n.(type) {
		case *plan.Scan:
			if col < 0 || col >= len(x.Cols) {
				return -1
			}
			return x.Cols[col]
		case *plan.Select:
			n = x.Child
		case *plan.Project:
			cr, ok := x.Exprs[col].(*expr.ColRef)
			if !ok {
				return -1
			}
			col = cr.Index
			n = x.Child
		default:
			return -1
		}
	}
}
