// Package catalog holds the schema metadata of the engine: column
// definitions for tables and baskets, and the registry that resolves names
// during planning.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bat"
	"repro/internal/vector"
)

// ErrNotFound is wrapped by Lookup failures so higher layers (the engine
// surfaces it as ErrUnknownStream) can branch with errors.Is instead of
// matching message strings.
var ErrNotFound = errors.New("catalog: unknown table or basket")

// TimestampColumn is the name of the implicit arrival-time column every
// basket carries (paper §2.2: "for each relational table there exists an
// extra column, the timestamp column").
const TimestampColumn = "ts"

// Column describes one attribute.
type Column struct {
	Name string
	Type vector.Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Index returns the position of the named column (case-insensitive), or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// CheckBatch checks that cols is one batch of the schema: one vector per
// column, each of its column's type, all of one length. It returns that
// length. Every path that takes a column batch — a table append and an
// ingest before it is logged — applies this one check.
func (s *Schema) CheckBatch(cols []*vector.Vector) (int, error) {
	if len(cols) != len(s.Columns) {
		return 0, fmt.Errorf("expected %d columns, got %d", len(s.Columns), len(cols))
	}
	n := 0
	for i, c := range cols {
		if c.Type() != s.Columns[i].Type {
			return 0, fmt.Errorf("column %s expects %s, got %s", s.Columns[i].Name, s.Columns[i].Type, c.Type())
		}
		if i == 0 {
			n = c.Len()
		} else if c.Len() != n {
			return 0, fmt.Errorf("ragged batch: column %s has %d rows, column %s has %d",
				s.Columns[i].Name, c.Len(), s.Columns[0].Name, n)
		}
	}
	return n, nil
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone deep-copies the schema.
func (s *Schema) Clone() *Schema {
	return &Schema{Columns: append([]Column(nil), s.Columns...)}
}

// WithTimestamp returns a copy of the schema with the implicit basket
// timestamp column appended (if not already present).
func (s *Schema) WithTimestamp() *Schema {
	if s.Index(TimestampColumn) >= 0 {
		return s.Clone()
	}
	out := s.Clone()
	out.Columns = append(out.Columns, Column{Name: TimestampColumn, Type: vector.Timestamp})
	return out
}

// String renders the schema as "(a BIGINT, b DOUBLE)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// SourceKind distinguishes the two relation kinds of the DataCell.
type SourceKind uint8

// Relation kinds.
const (
	KindTable SourceKind = iota
	KindBasket
)

// String returns "TABLE" or "BASKET".
func (k SourceKind) String() string {
	if k == KindBasket {
		return "BASKET"
	}
	return "TABLE"
}

// Source is anything the planner can scan: a static table or a basket.
// Snapshot must return a stable, read-only chunked view aligned with the
// source's schema; the view must stay valid across later appends and
// consumption (sources never mutate a published chunk in place).
type Source interface {
	Schema() *Schema
	Snapshot() bat.View
}

// Entry is one catalog registration. Partitioned streams carry their
// sharding declaration (Partitions/PartitionBy); the shard baskets
// themselves register as separate entries with Shard >= 0 pointing back
// at the parent.
type Entry struct {
	Name   string
	Kind   SourceKind
	Source Source
	// Partitions is the declared shard count of a partitioned source (0
	// for unpartitioned entries).
	Partitions int
	// PartitionBy is the hash-routing column ("" = round-robin).
	PartitionBy string
	// Shard is this entry's shard index within Parent, or -1.
	Shard int
	// Parent names the partitioned source a shard entry belongs to.
	Parent string
}

// Catalog is a concurrency-safe name → source registry.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[string]*Entry)}
}

// Register adds a source under the given name. Names are case-insensitive
// and must be unique across tables and baskets.
func (c *Catalog) Register(name string, kind SourceKind, src Source) error {
	return c.register(&Entry{Name: name, Kind: kind, Source: src, Shard: -1})
}

// RegisterPartitioned adds a partitioned source: the entry records the
// shard count and routing column so introspection can report them.
func (c *Catalog) RegisterPartitioned(name string, kind SourceKind, src Source, partitions int, by string) error {
	return c.register(&Entry{Name: name, Kind: kind, Source: src,
		Partitions: partitions, PartitionBy: by, Shard: -1})
}

// RegisterShard adds shard number shard of the partitioned source parent.
func (c *Catalog) RegisterShard(name string, kind SourceKind, src Source, parent string, shard int) error {
	return c.register(&Entry{Name: name, Kind: kind, Source: src,
		Shard: shard, Parent: parent})
}

func (c *Catalog) register(e *Entry) error {
	key := strings.ToLower(e.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		return fmt.Errorf("catalog: %q already exists", e.Name)
	}
	c.entries[key] = e
	return nil
}

// Drop removes a registration.
func (c *Catalog) Drop(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; !exists {
		return fmt.Errorf("catalog: %q does not exist", name)
	}
	delete(c.entries, key)
	return nil
}

// Lookup resolves a name.
func (c *Catalog) Lookup(name string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Names lists all registered names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
