package main

import "testing"

// midPhase is a mid phase of 1000 result rows, all with the given latency.
func midPhase(latNS int64) *phaseTiming {
	ph := &phaseTiming{name: "mid", n: 2048, rate: 1000, expected: 1000}
	for i := 0; i < ph.expected; i++ {
		ph.latNS = append(ph.latNS, latNS)
		ph.dueNS = append(ph.dueNS, int64(i)) // one bucket
	}
	return ph
}

func TestSustainabilityRule(t *testing.T) {
	for _, c := range []struct {
		name           string
		latNS          int64
		rep            phaseReport
		wantFailed     int
		wantInvalid    string
		wantMeasuredAg bool
	}{
		{"sustainable", 2e6, phaseReport{GenLateP99MS: 0.3, TailDelayMS: 1}, 0, "", false},
		{"latency limit broken", 60e6, phaseReport{GenLateP99MS: 0.3, TailDelayMS: 1}, 1000, "p99 latency above limit", false},
		{"backlog", 2e6, phaseReport{GenLateP99MS: 0.3, TailDelayMS: 1500}, 1000, "backlog at end of phase", false},
		{"generator late", 2e6, phaseReport{GenLateP99MS: 1.2, TailDelayMS: 1}, 0, invalidGenLate, true},
		// The daemon's failure is kept even when the generator was late too.
		{"both", 60e6, phaseReport{GenLateP99MS: 1.2, TailDelayMS: 1}, 1000, "p99 latency above limit", false},
	} {
		res := &runResult{}
		reports := []phaseReport{c.rep}
		summarizePhases(res, reports, []*phaseTiming{midPhase(c.latNS)}, false)
		res.Phases = reports
		if res.Failed != c.wantFailed || reports[0].Invalid != c.wantInvalid {
			t.Errorf("%s: failed=%d invalid=%q, want %d %q", c.name, res.Failed, reports[0].Invalid, c.wantFailed, c.wantInvalid)
		}
		if again := res.onlyGeneratorLate(); again != c.wantMeasuredAg {
			t.Errorf("%s: measured again = %v, want %v", c.name, again, c.wantMeasuredAg)
		}
	}
}
