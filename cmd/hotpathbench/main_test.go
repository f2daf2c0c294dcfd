package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// section runs one scenario at -smoke size in-process and returns the
// rows of its JSON section.
func section(t *testing.T, name string, args ...string) []map[string]any {
	t.Helper()
	var out bytes.Buffer
	if code := run(append([]string{"-scenario", name, "-smoke"}, args...), &out); code != 0 {
		t.Fatalf("%s: exit code %d", name, code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.Bytes())
	}
	var rows []map[string]any
	if err := json.Unmarshal(doc[name], &rows); err != nil {
		t.Fatalf("%s: section %q: %v", name, name, err)
	}
	return rows
}

// read is one CI gate's `jq '.<section>[] | select(<sel>) | .<field>'`:
// exactly one row must match the selection, and the field it reads must
// be a non-zero number. A renamed field would turn the gate's jq into
// null and its awk comparison into a vacuous pass.
func read(t *testing.T, rows []map[string]any, sel map[string]any, field string) {
	t.Helper()
	matched := 0
	for _, r := range rows {
		ok := true
		for k, want := range sel {
			ok = ok && r[k] == want
		}
		if !ok {
			continue
		}
		matched++
		if v, _ := r[field].(float64); v == 0 {
			t.Errorf("select(%v): .%s = %v, want a non-zero number", sel, field, r[field])
		}
	}
	if matched != 1 {
		t.Errorf("select(%v) matched %d rows, want 1", sel, matched)
	}
}

// TestJSONContract pins the fields .github/workflows/ci.yml selects on
// and reads; JSON numbers decode as float64.
func TestJSONContract(t *testing.T) {
	// scaling-smoke
	part := section(t, "partitioned", "-cpus", "4")
	read(t, part, map[string]any{"cpus": 4.0, "shards": 1.0}, "tuples_per_sec")
	read(t, part, map[string]any{"cpus": 4.0, "shards": 4.0}, "tuples_per_sec")
	// multiquery-smoke
	multi := section(t, "multiquery")
	read(t, multi, map[string]any{"strategy": "routed", "workload": "nonmatch", "queries": 1.0}, "ns_per_batch")
	read(t, multi, map[string]any{"strategy": "routed", "workload": "nonmatch", "queries": 10000.0}, "ns_per_batch")
	read(t, multi, map[string]any{"workload": "match", "batch_rows": 128.0}, "ns_per_tuple")
	read(t, multi, map[string]any{"workload": "match", "batch_rows": 16384.0}, "ns_per_tuple")
}
