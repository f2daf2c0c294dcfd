package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// definition is BENCHMARK.json, the one place metric names, units and
// bounds are written down; the bench reads it rather than repeat it.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDefinition() (*definition, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var def definition
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range def.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the bench does not have", w.Name)
		}
	}
	return &def, nil
}

// printRun writes one workload's end-to-end metrics, by name with unit,
// and what qualifies them.
func printRun(w io.Writer, def *definition, res *runResult) {
	fmt.Fprintf(w, "== %s  seed=%d  ops=%d  failed=%d\n", res.Workload, res.Seed, res.Ops, res.Failed)
	for _, p := range res.Discarded {
		if p.Invalid != "" {
			fmt.Fprintf(w, "  second attempt; the first was discarded: phase %s: %s (gen_late_p99=%.3f ms)\n", p.Name, p.Invalid, p.GenLateP99MS)
		}
	}
	for _, m := range def.EndToEnd {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-26s %12.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  phase %-4s %8d tuples %8d rows %7.3f s", p.Name, p.Tuples, p.ExpectedRows, p.Seconds)
		if p.Rate > 0 {
			fmt.Fprintf(w, "  rate=%d/s gen_late_p99=%.3f ms tail=%.1f ms  p50=%.3f p99=%.3f ms over %d buckets, n=%d, p%g=%.3f ms",
				p.Rate, p.GenLateP99MS, p.TailDelayMS, p.LatencyP50MS, p.LatencyP99MS, p.P99Buckets, p.Samples, p.TopPercentile*100, p.TopLatencyMS)
		}
		if p.KTuplesPerS > 0 {
			fmt.Fprintf(w, "  %.1f k/s", p.KTuplesPerS)
		}
		fmt.Fprintf(w, "  cpu=%.0f ns/t", p.CPUNSPerTuple)
		if p.Invalid != "" {
			fmt.Fprintf(w, "  INVALID: %s", p.Invalid)
		}
		fmt.Fprintln(w)
	}
	if res.Diff != "" {
		fmt.Fprintf(w, "  first difference: %s\n", res.Diff)
	}
}
