// Command bench is the repository's benchmark: it builds cmd/datacelld,
// runs it as a child process, drives it over its TCP ports from one
// producer and one consumer connection, checks every result row against an
// independent reference, and reports the end-to-end metrics named in
// BENCHMARK.json — or, with -trace 1, the per-layer ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

// smokeSeconds is a -smoke run's measured time: 2 s of mid, 1 s of low,
// 1 s of bursts. Less, and keyed_window's low phase may not close a single
// 1024-tick window, which leaves latency_lowrate_p50_ms without a sample.
const smokeSeconds = 4

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	repeat   int
	check    bool
	smoke    bool
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the one-line JSON result (default: all four, readable report)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload: half mid, a quarter low, a quarter cap (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = measure the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "o", filepath.Join(outDir, "result.json"), "result file of a full-set run")
	flag.IntVar(&o.repeat, "repeat", 1, "run the full set this many times")
	flag.BoolVar(&o.check, "check", false, "with -repeat: exit non-zero when an end-to-end metric spreads by more than its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "4 s per workload, one set-up, no bounds: plumbing check only")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	// Cancelling ctx (a signal, or the watchdog in driver mode) unwinds
	// through the deferred cleanups: the child is killed and waited for and
	// its data directory removed on every path out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, o options) error {
	def, err := loadDefinition()
	if err != nil {
		return err
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, setups: 3, cpus: planCPUs(allowedCPUs())}
	if cfg.seconds == 0 {
		cfg.seconds = float64(def.RunSeconds)
	}
	if o.smoke {
		cfg.seconds, cfg.setups, cfg.smoke = smokeSeconds, 1, true
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx)
	if err != nil {
		return err
	}
	if cfg.cpus.split() {
		if err := pinSelf(cfg.cpus.generator); err != nil {
			return fmt.Errorf("pinning the generator to CPUs %v: %w", cfg.cpus.generator, err)
		}
	}
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		// The contract allows a run 180 s; give up, cleanly, before that.
		ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
		defer cancel()
		return driverRun(ctx, bin, def, w, cfg, o.trace == 1)
	}
	return fullRun(ctx, bin, def, cfg, o)
}

// driverLine is the last line of standard output in driver mode.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun runs one workload and prints the one-line JSON result the
// benchmark contract asks for: the end-to-end metrics, or with traced the
// per-layer ones. The readable report goes to standard error.
func driverRun(ctx context.Context, bin string, def *definition, w *workload, cfg runConfig, traced bool) error {
	var res *runResult
	var values map[string]float64
	defs := def.EndToEnd
	var err error
	if traced {
		defs = def.PerLayer
		probes, err := newProber(ctx, cfg.seed)
		if err != nil {
			return err
		}
		defer probes.close()
		if res, values, err = tracedRun(ctx, bin, w, cfg, probes); err != nil {
			return err
		}
		printLayers(os.Stderr, def, w.name, values)
	} else {
		if res, err = measure(ctx, bin, w, cfg); err != nil {
			return err
		}
		values = res.Metrics
		printRun(os.Stderr, def, res)
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Ops, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = driverMetric{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// tracedRun measures the per-layer metrics of one workload: the open-loop
// phases once with -metrics off and once with it on and scraped (source B;
// the CPU difference is trace.overhead_pct), then the in-process span
// probes (source A), of which probes reruns only what depends on w. Each
// daemon run gets half of cfg.seconds. The returned result carries the ops
// and failures of both daemon runs.
func tracedRun(ctx context.Context, bin string, w *workload, cfg runConfig, probes *prober) (*runResult, map[string]float64, error) {
	half := cfg
	half.seconds, half.setups, half.skipCap = cfg.seconds/2, 1, true
	plain, err := measure(ctx, bin, w, half)
	if err != nil {
		return nil, nil, err
	}
	live := newLiveScraper(ctx, w)
	half.metrics, half.scrape = true, live.begin
	traced, err := measure(ctx, bin, w, half)
	if err != nil {
		return nil, nil, err
	}
	values, err := live.liveMetrics()
	if err != nil {
		return nil, nil, err
	}
	values["trace.overhead_pct"] = (traced.Metrics["cpu_ns_per_tuple"]/plain.Metrics["cpu_ns_per_tuple"] - 1) * 100

	// No daemon is running now: the in-process probes get the whole
	// machine, as an embedded engine would.
	if cfg.cpus.split() {
		if err := pinSelf(cfg.cpus.all); err != nil {
			return nil, nil, err
		}
	}
	sourceA, err := probes.forWorkload(w)
	if err == nil && cfg.cpus.split() {
		err = pinSelf(cfg.cpus.generator)
	}
	if err != nil {
		return nil, nil, err
	}
	for name, v := range sourceA {
		values[name] = v
	}
	traced.Ops += plain.Ops
	traced.Failed += plain.Failed
	if traced.Diff == "" {
		traced.Diff = plain.Diff
	}
	return traced, values, nil
}

// printLayers writes one workload's per-layer metrics by name with unit.
func printLayers(w io.Writer, def *definition, workload string, values map[string]float64) {
	fmt.Fprintf(w, "== %s  per-layer\n", workload)
	for _, m := range def.PerLayer {
		if v, ok := values[m.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
}

// resultFile is bench/out/result.json (and layers.json, whose runs carry
// per-layer metrics).
type resultFile struct {
	Environment environment  `json:"environment"`
	Seconds     float64      `json:"seconds_per_workload"`
	Runs        []*runResult `json:"runs"`
}

// fullRun runs all four workloads, o.repeat times over, prints every
// metric by name with its unit, writes the result file, and fails when a
// row check failed or — with -check — when repeats disagree.
func fullRun(ctx context.Context, bin string, def *definition, cfg runConfig, o options) error {
	if o.trace == 1 {
		if o.repeat > 1 {
			return errors.New("-repeat compares end-to-end runs; it does not go with -trace 1")
		}
		return tracedSet(ctx, bin, def, cfg)
	}
	file := resultFile{Environment: readEnvironment(cfg.cpus), Seconds: cfg.seconds}
	failed := 0
	for rep := 0; rep < o.repeat; rep++ {
		cfg.seed = o.seed + uint64(rep) // another seed each time, as the PR driver does
		for _, w := range workloads {
			res, err := measure(ctx, bin, w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(os.Stdout, def, res)
			file.Runs = append(file.Runs, res)
			failed += res.Failed
		}
	}
	if err := writeJSON(o.out, file); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d result rows failed the check", failed)
	}
	if o.repeat > 1 {
		over := printSpread(os.Stdout, def, file.Runs)
		if o.check && !o.smoke && over > 0 {
			return fmt.Errorf("%d workload × metric pairs spread by more than their bound", over)
		}
	}
	return nil
}

// tracedSet measures the per-layer metrics of all four workloads, prints
// them and writes layers.json.
func tracedSet(ctx context.Context, bin string, def *definition, cfg runConfig) error {
	probes, err := newProber(ctx, cfg.seed)
	if err != nil {
		return err
	}
	defer probes.close()
	layers := resultFile{Environment: readEnvironment(cfg.cpus), Seconds: cfg.seconds}
	failed := 0
	for _, w := range workloads {
		res, values, err := tracedRun(ctx, bin, w, cfg, probes)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printLayers(os.Stdout, def, w.name, values)
		res.Metrics = values
		layers.Runs = append(layers.Runs, res)
		failed += res.Failed
	}
	if err := writeJSON(filepath.Join(outDir, "layers.json"), layers); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d result rows failed the check", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSpread prints, per workload and end-to-end metric, the median of
// the repeats and their spread as a share of it — max − min below four
// repeats, the interquartile range from four on, which is what the driver
// computes over ten — and returns how many spreads exceed their bound. A
// workload's diskBound metrics are printed but not counted.
func printSpread(w io.Writer, def *definition, runs []*runResult) int {
	fmt.Fprintf(w, "\n%-16s %-26s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	over := 0
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			var vals []float64
			for _, r := range runs {
				if r.Workload == wl.name {
					vals = append(vals, r.Metrics[m.Name])
				}
			}
			med := medianFloat(vals)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			if len(vals) >= 4 {
				lo, hi = quartiles(vals)
			}
			spread := ratio(hi-lo, med)
			mark := ""
			switch {
			case spread <= m.Bound:
			case slices.Contains(wl.diskBound, m.Name):
				mark = "  over (follows the disk, not counted)"
			default:
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-16s %-26s %12.4f %8.2f%% %6.0f%%%s\n", wl.name, m.Name, med, spread*100, m.Bound*100, mark)
		}
	}
	return over
}
