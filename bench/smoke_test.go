package main

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestSmokeAgainstDaemon is the one test that starts a real datacelld: a
// -smoke run of keyed_window — the workload with the least trivial
// reference — to prove the plumbing (build, launch, port discovery, DDL,
// pacing, capture, /proc readers, the exactly-once check) end to end. The
// benchmark's long runs are never started by go test.
func TestSmokeAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the bench reads /proc")
	}
	t.Chdir("..") // the bench runs from the repository root
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(ctx, bin, findWorkload("keyed_window"), runConfig{seed: 1, seconds: smokeSeconds, setups: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Ops == 0 {
		t.Errorf("ops=%d failed=%d: %s", res.Ops, res.Failed, res.Diff)
	}
	for _, m := range def.EndToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || !(v > 0) {
			t.Errorf("metric %s = %v, want a positive value", m.Name, v)
		}
	}
	if len(res.Phases) != 3+capBursts {
		t.Errorf("%d phases reported, want warm, mid, low and %d bursts", len(res.Phases), capBursts)
	}
}
