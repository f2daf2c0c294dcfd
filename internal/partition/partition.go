// Package partition implements hash-sharded parallel execution for
// continuous queries: a partitioned stream owns N shard baskets, the
// ingest fan-out routes every tuple to exactly one shard (hashing the
// declared partition column, or round-robin when none is declared), each
// query over the stream is cloned into N independent shard pipelines, and
// a merge transition recombines the shard emissions into one result
// stream — order-preserving per shard, with a global aggregation stage
// only when the query's grouping keys are not aligned with the partition
// key.
//
// The subsystem converts the chunked zero-copy basket storage into
// multicore throughput: shard transitions are ordinary Petri-net
// transitions, so the concurrent scheduler's worker pool finally has
// same-query work to run in parallel.
package partition

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/vector"
)

// MaxShards bounds the partitions option; more shards than cores only
// adds scheduling overhead.
const MaxShards = 1024

// Spec declares how a stream is partitioned. It is expressed in DDL as
// CREATE BASKET s (...) WITH (partitions = N, partition_by = col).
type Spec struct {
	// Shards is the number of shard baskets; values below 2 mean the
	// stream is not partitioned.
	Shards int
	// By names the user column whose hash routes a tuple to its shard.
	// Empty means round-robin routing.
	By string
}

// Enabled reports whether the spec actually shards the stream.
func (s Spec) Enabled() bool { return s.Shards > 1 }

// FromOptions extracts the partitioning options (partitions,
// partition_by) from a WITH list, returning the spec and the remaining
// unrecognized options.
func FromOptions(opts []sql.OptionSpec) (Spec, []sql.OptionSpec, error) {
	var spec Spec
	var rest []sql.OptionSpec
	for _, o := range opts {
		switch strings.ToLower(o.Key) {
		case "partitions":
			n, err := strconv.Atoi(o.Val)
			if err != nil || n < 1 || n > MaxShards {
				return Spec{}, nil, fmt.Errorf("partition: partitions = %q (want an integer in 1..%d)", o.Val, MaxShards)
			}
			spec.Shards = n
		case "partition_by":
			if o.Val == "" {
				return Spec{}, nil, fmt.Errorf("partition: partition_by needs a column name")
			}
			spec.By = o.Val
		default:
			rest = append(rest, o)
		}
	}
	if spec.By != "" && spec.Shards == 0 {
		return Spec{}, nil, fmt.Errorf("partition: partition_by without partitions")
	}
	return spec, rest, nil
}

// Router assigns incoming tuples to shards: by hash of the partition
// column when one is declared, round-robin otherwise. It is safe for
// concurrent use.
type Router struct {
	spec   Spec
	keyIdx int    // index of spec.By in the user schema; -1 = round-robin
	rr     uint64 // round-robin cursor (atomic)
}

// NewRouter validates the spec against the stream's user schema (no ts
// column) and returns a router.
func NewRouter(schema *catalog.Schema, spec Spec) (*Router, error) {
	if !spec.Enabled() {
		return nil, fmt.Errorf("partition: spec has %d shards", spec.Shards)
	}
	keyIdx := -1
	if spec.By != "" {
		keyIdx = schema.Index(spec.By)
		if keyIdx < 0 {
			return nil, fmt.Errorf("partition: partition_by column %q not in schema %s", spec.By, schema)
		}
	}
	return &Router{spec: spec, keyIdx: keyIdx}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.spec.Shards }

// Spec returns the routing spec.
func (r *Router) Spec() Spec { return r.spec }

// mix64 is the splitmix64 finalizer: a cheap avalanching mixer so that
// sequential or low-entropy keys still spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a 64 over the bytes, post-mixed.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// hashDomain is the type whose hash shardOfValue applies to a value of
// type t: BIGINT and TIMESTAMP share one.
func hashDomain(t vector.Type) vector.Type {
	if t == vector.Timestamp {
		return vector.Int64
	}
	return t
}

// shardOfValue maps one partition-key value to its shard. NULLs hash to
// shard 0 so every tuple has exactly one home.
func (r *Router) shardOfValue(v vector.Value) int {
	if v.Null {
		return 0
	}
	n := uint64(r.spec.Shards)
	switch hashDomain(v.Typ) {
	case vector.Int64:
		return int(mix64(uint64(v.I)) % n)
	case vector.Float64:
		f := v.F
		if f == 0 {
			f = 0 // -0 equals +0, so it must share its shard
		}
		return int(mix64(math.Float64bits(f)) % n)
	case vector.Bool:
		if v.B {
			return int(mix64(1) % n)
		}
		return int(mix64(0) % n)
	default:
		return int(hashString(v.S) % n)
	}
}

// Split routes a batch of user columns into per-shard column batches.
// parts[i] is nil when shard i receives no rows; per-shard relative row
// order is the arrival order. When every row of the batch lands in one
// shard the input columns are handed through without copying — the
// zero-copy path for pre-partitioned feeds.
func (r *Router) Split(cols []*vector.Vector) ([][]*vector.Vector, error) {
	shards := r.spec.Shards
	parts := make([][]*vector.Vector, shards)
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	if n == 0 {
		return parts, nil
	}
	ids := make([]int, n)
	if r.keyIdx < 0 {
		base := atomic.AddUint64(&r.rr, uint64(n)) - uint64(n)
		for i := range ids {
			ids[i] = int((base + uint64(i)) % uint64(shards))
		}
	} else {
		if r.keyIdx >= len(cols) {
			return nil, fmt.Errorf("partition: batch has %d columns, key is column %d", len(cols), r.keyIdx)
		}
		key := cols[r.keyIdx]
		for i := 0; i < n; i++ {
			ids[i] = r.shardOfValue(key.Get(i))
		}
	}

	// Single-shard fast path: hand the batch through untouched.
	single := true
	for _, id := range ids[1:] {
		if id != ids[0] {
			single = false
			break
		}
	}
	if single {
		parts[ids[0]] = cols
		return parts, nil
	}

	pos := make([][]int, shards)
	for i, id := range ids {
		pos[id] = append(pos[id], i)
	}
	for s, ps := range pos {
		if len(ps) == 0 {
			continue
		}
		out := make([]*vector.Vector, len(cols))
		for c, col := range cols {
			out[c] = col.Take(ps)
		}
		parts[s] = out
	}
	return parts, nil
}
