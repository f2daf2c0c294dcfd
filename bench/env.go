package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the result header: what a number was measured on.
// Results compare only between hosts that divide their CPUs alike: a
// daemon with two CPUs of its own runs its two workers in parallel, one
// with a single CPU never does.
type environment struct {
	NumCPU           int    `json:"nproc"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	DaemonCPUs       []int  `json:"daemon_cpus"`    // empty: not pinned, shares the generator's
	GeneratorCPUs    []int  `json:"generator_cpus"` // empty: not pinned
	GoVersion        string `json:"go_version"`
	Kernel           string `json:"kernel"`
	Commit           string `json:"commit"`
	DataFS           string `json:"data_dir_fs"`
}

func readEnvironment(cpus cpuPlan) environment {
	env := environment{
		NumCPU:           runtime.NumCPU(),
		DaemonGOMAXPROCS: cpus.gomaxprocs(),
		DaemonCPUs:       cpus.daemon,
		GeneratorCPUs:    cpus.generator,
		GoVersion:        runtime.Version(),
		Kernel:           "unknown",
		Commit:           "unknown",
		DataFS:           "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout without .git (an exported tree) has no commit to name.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	if dir, err := filepath.Abs(outDir); err == nil {
		if b, err := os.ReadFile("/proc/mounts"); err == nil {
			env.DataFS = fsTypeOf(dir, string(b))
		}
	}
	return env
}

// fsTypeOf returns the filesystem type of the mount that holds dir, given
// the contents of /proc/mounts: the longest mount point that is a path
// prefix of dir wins, a later line beating an earlier one.
func fsTypeOf(dir, mounts string) string {
	best, fs := -1, "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if dir == mp || mp == "/" || strings.HasPrefix(dir, mp+"/") {
			if len(mp) >= best {
				best, fs = len(mp), f[2]
			}
		}
	}
	return fs
}
