//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// Without nanosleep(2) and sched_setaffinity(2) pacing is only
// millisecond-accurate and generator and daemon share every CPU.

func sleepFor(d time.Duration) { time.Sleep(d) }

func allowedCPUs() []int { return nil }

func pinSelf(cpus []int) error { return nil }

func startOn(cmd *exec.Cmd, cpus, back []int) error { return cmd.Start() }
