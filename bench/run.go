package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"
)

// Limits of the sustainability rule for open-loop phases.
const (
	maxGenLateP99 = time.Millisecond       // above it the generator, not the server, ran late
	maxMidP99     = 50 * time.Millisecond  // latency limit at rate_mid
	maxTailDelay  = time.Second            // last result after last send
	phaseGrace    = 30 * time.Second       // how long a phase may take to drain before the run is abandoned
	settle        = 100 * time.Millisecond // idle gap between phases
	burstSettle   = 50 * time.Millisecond  // idle gap between cap bursts

	// Every set-up ends with the workload's warm-up tuples pushed flat out
	// in chunks of chunkSeconds' worth of its nominal capacity, each sent
	// once the last result of the one before is in. So set-up time is the
	// daemon's work — launch, DDL, then W tuples at its own closed-loop
	// speed — and no timer of the generator's is in it. The chunks bound
	// what piles up in the stream's basket: one unbroken flat-out push left
	// the daemon's peak memory anywhere between 28 and 76 MB, and chunks of
	// 5 ms still left keyed_window's at 15.4 MB in four runs of ten and at
	// 18.9 MB in the other six.
	chunkSeconds = 0.001
	// capBursts flat-out bursts share the cap quarter of the run; capacity
	// is the fastest of them. Flat out, the engine settles burst by burst
	// into one of two modes — it fires on every 128-row batch, or it falls
	// a little behind, fires on bigger ones and runs a third faster — and
	// host interference only ever slows a burst down. One long burst, or
	// the median of a few, reports whichever mode the run happened into;
	// the best of many short ones reports the fast mode nearly every time.
	capBursts = 24
)

// runConfig shapes one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64                              // measured time: half mid, a quarter low, a quarter cap
	setups  int                                  // set-up repetitions; setup_s is their median
	metrics bool                                 // start the daemon with -metrics (traced runs only)
	scrape  func(phase string, d *daemon) func() // optional: called at open-loop phase start, its result at phase end
	skipCap bool                                 // traced runs stop after the open-loop phases
	smoke   bool                                 // plumbing check: the sustainability rule is not applied
	cpus    cpuPlan                              // which CPUs the daemon gets, which the generator keeps
}

// phaseReport is one phase as the result file shows it.
type phaseReport struct {
	Name          string  `json:"name"`
	Tuples        int     `json:"tuples"`
	Rate          int     `json:"rate_per_s,omitempty"`
	ExpectedRows  int     `json:"expected_rows"`
	Seconds       float64 `json:"seconds"`
	GenLateP99MS  float64 `json:"gen_late_p99_ms,omitempty"`
	TailDelayMS   float64 `json:"tail_delay_ms,omitempty"`
	LatencyP50MS  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP99MS  float64 `json:"latency_p99_ms,omitempty"`
	Samples       int     `json:"latency_samples,omitempty"`
	P99Buckets    int     `json:"p99_buckets,omitempty"`
	TopPercentile float64 `json:"top_supported_percentile,omitempty"`
	TopLatencyMS  float64 `json:"top_supported_latency_ms,omitempty"`
	CPUNSPerTuple float64 `json:"server_cpu_ns_per_tuple,omitempty"`
	KTuplesPerS   float64 `json:"ktuples_per_s,omitempty"`
	Invalid       string  `json:"invalid,omitempty"`
}

// runResult is one workload's outcome.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
	SetupsS  []float64          `json:"setups_s"`
	Phases   []phaseReport      `json:"phases"`
	Diff     string             `json:"first_difference,omitempty"`
	// Discarded holds the phases of a first attempt that was measured
	// again because the generator, not the daemon, ran late (see measure).
	Discarded []phaseReport `json:"discarded_attempt,omitempty"`
}

// session is one daemon with its three connections, warmed up.
type session struct {
	d    *daemon
	prod net.Conn
	cons *consumer
	clk  clock
}

func (s *session) close() {
	if s.prod != nil {
		_ = s.prod.Close()
	}
	if s.cons != nil {
		s.cons.close()
	}
	s.d.stop()
}

// setUp launches a daemon, registers the workload over the SQL port,
// connects consumer and producer, pushes the warm-up chunk by chunk and
// waits for its last result. It returns the session and how long all of
// that took.
func setUp(ctx context.Context, bin string, w *workload, cfg runConfig, plan *plannedRun, recvBytes int) (*session, float64, error) {
	clk := clock{base: time.Now()}
	d, err := startDaemon(ctx, bin, cfg.cpus, w.durable, cfg.metrics)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, clk: clk}
	fail := func(err error) (*session, float64, error) {
		s.close()
		return nil, 0, fmt.Errorf("set-up: %w (last daemon log: %s)", err, d.lastLog())
	}
	ctl, err := dialSQL(d.sqlAddr)
	if err != nil {
		return fail(err)
	}
	defer ctl.close()
	for _, stmt := range w.ddl() {
		if _, err := ctl.exec(stmt); err != nil {
			return fail(err)
		}
	}
	if s.cons, err = startConsumer(d.resultsAddr, w.query, clk, recvBytes); err != nil {
		return fail(err)
	}
	if s.prod, err = net.Dial("tcp", d.ingestAddr); err != nil {
		return fail(err)
	}
	if _, err := io.WriteString(s.prod, w.stream+"\n"); err != nil {
		return fail(err)
	}
	target := int64(0)
	for pi := 0; pi < plan.warm; pi++ {
		if _, err := sendFlat(s.prod, clk, plan.inputs[pi]); err != nil {
			return fail(err)
		}
		target += int64(plan.rows[pi])
		if _, err := s.cons.waitLines(ctx, target, phaseGrace); err != nil {
			return fail(err)
		}
	}
	return s, float64(clk.now()) / 1e9, nil
}

// measure runs the workload and, when the only thing wrong with that run
// is that the generator woke late in an open-loop phase — the host stalled
// it; the rows were checked and are right, the timing is suspect — once
// more. The first attempt's phases stay in the result, and the second
// attempt stands whatever it shows. Failed rows, a latency limit broken
// and a backlog left behind are the daemon's and are never retried away.
func measure(ctx context.Context, bin string, w *workload, cfg runConfig) (*runResult, error) {
	res, err := runWorkload(ctx, bin, w, cfg)
	if err != nil || !res.onlyGeneratorLate() {
		return res, err
	}
	again, err := runWorkload(ctx, bin, w, cfg)
	if err != nil {
		return nil, err
	}
	again.Discarded = res.Phases
	return again, nil
}

// onlyGeneratorLate reports whether nothing failed and a phase was flagged
// for the generator's own lateness.
func (r *runResult) onlyGeneratorLate() bool {
	if r.Failed > 0 {
		return false
	}
	for _, p := range r.Phases {
		if p.Invalid == invalidGenLate {
			return true
		}
	}
	return false
}

const invalidGenLate = "generator ran late"

// plannedRun is a run's input: every phase encoded, and how many result
// rows each is due.
type plannedRun struct {
	inputs []*phaseInput
	phases []*phaseTiming
	rows   []int // expected result rows per phase
	warm   int   // leading phases that are warm-up chunks; mid and low follow
}

// planRun encodes the warm-up chunks, mid, low and (unless cfg.skipCap)
// the cap bursts from the seed, as one tuple sequence.
func planRun(w *workload, cfg runConfig) (*plannedRun, error) {
	type phaseSpec struct {
		name    string
		n, rate int
	}
	var specs []phaseSpec
	chunk := roundTuples(int(float64(w.capPerSec) * chunkSeconds))
	for n := 0; n < w.warmTuples; n += chunk {
		specs = append(specs, phaseSpec{"warm", chunk, 0})
	}
	warm := len(specs)
	specs = append(specs,
		phaseSpec{"mid", roundTuples(int(float64(w.rateMid) * cfg.seconds / 2)), w.rateMid},
		phaseSpec{"low", roundTuples(int(rateLow * cfg.seconds / 4)), rateLow})
	if !cfg.skipCap {
		nCap := roundTuples(int(float64(w.capPerSec) * cfg.seconds / 4 / capBursts))
		for i := 1; i <= capBursts; i++ {
			specs = append(specs, phaseSpec{fmt.Sprintf("cap%d", i), nCap, 0})
		}
	}
	p := &plannedRun{warm: warm}
	r, gen, seq := newRNG(cfg.seed), w.gen(), int64(0)
	for _, sp := range specs {
		p.inputs = append(p.inputs, encodePhase(gen, r, seq, sp.n, sp.rate))
		p.phases = append(p.phases, &phaseTiming{name: sp.name, firstSeq: seq, n: sp.n, rate: sp.rate})
		seq += int64(sp.n)
	}
	var err error
	p.rows, err = expectedRows(w.ref(), w.inKinds, p.inputs)
	return p, err
}

// runWorkload measures one workload once: set-up (cfg.setups times, the
// last daemon is kept), then mid, low and the cap bursts on one producer
// and one consumer connection, then the check of every received row.
func runWorkload(ctx context.Context, bin string, w *workload, cfg runConfig) (*runResult, error) {
	plan, err := planRun(w, cfg)
	if err != nil {
		return nil, err
	}
	inputs, phases, rows := plan.inputs, plan.phases, plan.rows
	recvBytes := 0
	for i, in := range inputs {
		// Result lines are about as long as input lines.
		recvBytes += len(in.data) / in.n * rows[i]
	}

	res := &runResult{Workload: w.name, Seed: cfg.seed, Metrics: map[string]float64{}}
	var s *session
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
		}
		var took float64
		if s, took, err = setUp(ctx, bin, w, cfg, plan, recvBytes); err != nil {
			return nil, err
		}
		res.SetupsS = append(res.SetupsS, took)
	}
	defer s.close()
	res.Metrics["setup_s"] = medianFloat(res.SetupsS)

	reports, peakKB, err := drivePhases(ctx, s, plan, cfg)
	if err != nil {
		return nil, err
	}
	reports[0].Seconds = res.SetupsS[len(res.SetupsS)-1]
	// Closing the producer flushes nothing (every phase is whole batches);
	// the pause lets a duplicated or stray row still reach the socket.
	_ = s.prod.Close()
	s.prod = nil
	time.Sleep(settle)
	recv, marks := s.cons.close()
	s.cons = nil
	ingestErrs := int(s.d.ingestErrs.Load())

	chk, err := verify(w.ref(), w.inKinds, w.outKinds, inputs, phases, recv, marks)
	if err != nil {
		return nil, err
	}
	res.Failed = chk.failed() + ingestErrs
	res.Diff = chk.firstDiff
	if ingestErrs > 0 && res.Diff == "" {
		res.Diff = fmt.Sprintf("server rejected %d tuples: %s", ingestErrs, s.d.lastLog())
	}
	// reports[0] is the warm-up as a whole; the rest pair with the phases
	// after it, mid and low first.
	best := summarizePhases(res, reports[1:], phases[plan.warm:], cfg.smoke)
	res.Phases = reports

	mid, midRep, lowRep := phases[plan.warm], reports[1], reports[2]
	res.Metrics["latency_p50_ms"] = midRep.LatencyP50MS
	res.Metrics["latency_p99_ms"] = midRep.LatencyP99MS
	res.Metrics["latency_lowrate_p50_ms"] = lowRep.LatencyP50MS
	if best > 0 {
		res.Metrics["capacity_ktuples_per_s"] = best
	}
	res.Metrics["cpu_ns_per_tuple"] = midRep.CPUNSPerTuple
	res.Metrics["peak_rss_mb"] = float64(peakKB) / 1024
	res.Metrics["wire_bytes_per_tuple"] = float64(int64(len(inputs[plan.warm].data))+mid.recvBytes) / float64(mid.n)
	return res, nil
}

// drivePhases sends every phase after the warm-up over the session's
// connections, each once the previous one's last result is in, and returns
// one report per phase (the warm-up's first) and the daemon's peak
// resident set after low.
func drivePhases(ctx context.Context, s *session, plan *plannedRun, cfg runConfig) ([]phaseReport, int64, error) {
	inputs, phases, rows := plan.inputs, plan.phases, plan.rows
	warm := phaseReport{Name: "warm"}
	for pi := 0; pi < plan.warm; pi++ {
		warm.Tuples += inputs[pi].n
		warm.ExpectedRows += rows[pi]
	}
	reports := []phaseReport{warm}
	target := int64(warm.ExpectedRows)
	var peakKB int64
	for pi := plan.warm; pi < len(inputs); pi++ {
		in, ph := inputs[pi], phases[pi]
		if in.rate == 0 && inputs[pi-1].rate == 0 {
			time.Sleep(burstSettle)
		} else {
			time.Sleep(settle)
		}
		var endScrape func()
		if cfg.scrape != nil && in.rate > 0 {
			endScrape = cfg.scrape(ph.name, s.d)
		}
		cpu0, err := readProcCPU(s.d.pid())
		if err != nil {
			return nil, 0, err
		}
		var st sendStats
		if in.rate > 0 {
			st, err = sendPaced(s.prod, s.clk, in)
		} else {
			st, err = sendFlat(s.prod, s.clk, in)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("phase %s: send: %w (last daemon log: %s)", ph.name, err, s.d.lastLog())
		}
		ph.startNS = st.startNS
		target += int64(rows[pi])
		doneNS, err := s.cons.waitLines(ctx, target, phaseGrace)
		if err != nil {
			return nil, 0, fmt.Errorf("phase %s: %w (last daemon log: %s)", ph.name, err, s.d.lastLog())
		}
		cpu1, err := readProcCPU(s.d.pid())
		if err != nil {
			return nil, 0, err
		}
		if endScrape != nil {
			endScrape()
		}
		rep := phaseReport{Name: ph.name, Tuples: in.n, Rate: in.rate, ExpectedRows: rows[pi], Seconds: float64(doneNS-st.startNS) / 1e9,
			CPUNSPerTuple: float64(cpu1.total()-cpu0.total()) / float64(in.n)}
		if in.rate > 0 {
			rep.GenLateP99MS = float64(percentile(sortedCopy(st.lateNS), 0.99)) / 1e6
			rep.TailDelayMS = float64(doneNS-st.endNS) / 1e6
		}
		reports = append(reports, rep)
		if ph.name == "low" {
			// Peak memory is read before the cap bursts: flat-out input
			// piles up in the stream's basket for as long as it lasts, so
			// a peak taken after it measures the burst, not the engine.
			if peakKB, err = readPeakRSSKB(s.d.pid()); err != nil {
				return nil, 0, err
			}
		}
	}
	return reports, peakKB, nil
}

// summarizePhases fills the reports of the timed phases with what the
// checker derived — latencies of the open-loop phases, rates of the bursts
// — applies the sustainability rule, and returns the fastest burst in
// k tuples/s.
func summarizePhases(res *runResult, reports []phaseReport, phases []*phaseTiming, smoke bool) (best float64) {
	for pi, ph := range phases {
		rep := &reports[pi]
		res.Ops += ph.expected
		if ph.rate == 0 {
			if ph.lastRecv > ph.startNS {
				rep.KTuplesPerS = float64(ph.n) / (float64(ph.lastRecv-ph.startNS) / 1e9) / 1e3
				best = max(best, rep.KTuplesPerS)
			}
			continue
		}
		lat := sortedCopy(ph.latNS)
		rep.Samples = len(lat)
		rep.LatencyP50MS = float64(percentile(lat, 0.50)) / 1e6
		p99, buckets := bucketP99Median(ph.latNS, ph.dueNS)
		rep.LatencyP99MS, rep.P99Buckets = p99/1e6, buckets
		rep.TopPercentile = highestSupportedPercentile(len(lat))
		rep.TopLatencyMS = float64(percentile(lat, rep.TopPercentile)) / 1e6
		if smoke {
			continue
		}
		// A latency limit broken or a backlog left behind is the daemon's
		// and fails the phase's rows. The generator's own lateness makes
		// the numbers suspect but is no failure of the daemon: the phase is
		// only flagged (and such a run measured again, see measure).
		switch {
		case ph.name == "mid" && rep.LatencyP99MS > float64(maxMidP99)/1e6:
			rep.Invalid = "p99 latency above limit"
		case ph.name == "mid" && rep.TailDelayMS > float64(maxTailDelay)/1e6:
			rep.Invalid = "backlog at end of phase"
		}
		if rep.Invalid != "" {
			res.Failed += ph.expected
			if res.Diff == "" {
				res.Diff = fmt.Sprintf("phase %s unsustainable: %s", ph.name, rep.Invalid)
			}
		} else if rep.GenLateP99MS >= float64(maxGenLateP99)/1e6 {
			rep.Invalid = invalidGenLate
		}
	}
	res.Failed = min(res.Failed, res.Ops)
	return best
}
