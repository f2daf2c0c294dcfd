package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// outDir holds everything the benchmark writes: the daemon binary, data
// directories, result files. It is relative to the checkout root, which
// `go run ./bench` is started from.
const outDir = "bench/out"

// buildDaemon compiles cmd/datacelld from the checkout's source.
func buildDaemon(ctx context.Context) (string, error) {
	if _, err := os.Stat("cmd/datacelld"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "datacelld"))
	if err != nil {
		return "", err
	}
	// -buildvcs=false: a checkout whose .git the build cannot read (another
	// owner, no git binary) must still build.
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/datacelld")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/datacelld: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running datacelld child.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string // removed on stop; "" when in-memory
	logDone chan struct{}

	ingestAddr, resultsAddr, sqlAddr, metricsURL string

	// ingestErrs counts tuples the server logged as rejected.
	ingestErrs atomic.Int64
	tail       atomic.Pointer[string] // last log line, for diagnostics
}

var portsLine = regexp.MustCompile(`datacelld: ingest=(\S+) results=(\S+) sql=(\S+)(?: metrics=(\S+))?`)

// cpuPlan divides the machine between the daemon and the generator. On
// shared CPUs the kernel's placement of their threads flips between runs
// and takes every time-based metric with it (server CPU per tuple differs
// by 70% between placements), so each side gets CPUs of its own: the
// daemon up to two — what -workers 2 can use — and the generator the rest,
// at least one. A machine with a single CPU cannot be divided.
type cpuPlan struct{ all, daemon, generator []int }

func planCPUs(allowed []int) cpuPlan {
	if len(allowed) < 2 {
		return cpuPlan{}
	}
	n := min(2, len(allowed)-1)
	return cpuPlan{all: allowed, daemon: allowed[len(allowed)-n:], generator: allowed[:len(allowed)-n]}
}

func (p cpuPlan) split() bool { return len(p.daemon) > 0 }

// gomaxprocs is what the daemon runs with: its CPU count, or 2 undivided.
func (p cpuPlan) gomaxprocs() int {
	if p.split() {
		return len(p.daemon)
	}
	return 2
}

// startDaemon launches the child on ephemeral ports with two workers, on
// the daemon's CPUs of the plan, and waits for the log line that announces
// the ports.
func startDaemon(ctx context.Context, bin string, cpus cpuPlan, durable, metrics bool) (*daemon, error) {
	d := &daemon{logDone: make(chan struct{})}
	args := []string{"-workers", "2", "-ingest", "127.0.0.1:0", "-results", "127.0.0.1:0", "-sql", "127.0.0.1:0"}
	if durable {
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		args = append(args, "-data", dir)
	}
	if metrics {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cpus.gomaxprocs()))
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		d.removeData()
		return nil, err
	}
	if cpus.split() {
		err = startOn(d.cmd, cpus.daemon, cpus.generator)
	} else {
		err = d.cmd.Start()
	}
	if err != nil {
		d.removeData()
		return nil, err
	}
	ports := make(chan []string, 1)
	go d.readLog(stderr, ports)
	select {
	case m := <-ports:
		if m == nil {
			d.stop()
			return nil, fmt.Errorf("datacelld exited before announcing its ports: %s", d.lastLog())
		}
		d.ingestAddr, d.resultsAddr, d.sqlAddr, d.metricsURL = m[1], m[2], m[3], m[4]
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("datacelld did not announce its ports within 20s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	return d, nil
}

// readLog scans the child's log for the ports line, then keeps draining it
// so the child never blocks on a full pipe, counting rejected tuples.
func (d *daemon) readLog(r io.Reader, ports chan<- []string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		d.tail.Store(&line)
		if !announced {
			if m := portsLine.FindStringSubmatch(line); m != nil {
				announced = true
				ports <- m
			}
			continue
		}
		if strings.Contains(line, " ingest ") {
			d.ingestErrs.Add(1)
		}
	}
	if !announced {
		ports <- nil
	}
}

func (d *daemon) lastLog() string {
	if s := d.tail.Load(); s != nil {
		return *s
	}
	return "(no log output)"
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the child, waits for it, and removes its data directory.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill() // already-exited is fine: Wait reports it
		<-d.logDone
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing
	}
	d.removeData()
}

func (d *daemon) removeData() {
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir) // best effort; bench/out is scratch space
	}
}

// sqlConn is the control connection: one statement per line, the reply
// ends with OK or ERR.
type sqlConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialSQL(addr string) (*sqlConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &sqlConn{conn: c, r: bufio.NewReader(c)}, nil
}

func (s *sqlConn) close() { _ = s.conn.Close() }

// exec runs one single-line statement and returns the reply body.
func (s *sqlConn) exec(stmt string) (string, error) {
	if strings.ContainsRune(stmt, '\n') {
		return "", fmt.Errorf("statement spans lines: %q", stmt)
	}
	if _, err := io.WriteString(s.conn, stmt+"\n"); err != nil {
		return "", err
	}
	var body strings.Builder
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("%q: %w", stmt, err)
		}
		switch {
		case line == "OK\n":
			return body.String(), nil
		case strings.HasPrefix(line, "ERR "):
			return "", fmt.Errorf("%q: %s", stmt, strings.TrimSpace(line))
		}
		body.WriteString(line)
	}
}

// procCPU is a process's consumed CPU time.
type procCPU struct{ userNS, sysNS int64 }

func (c procCPU) total() int64 { return c.userNS + c.sysNS }

// clockTickNS is the unit of utime/stime in /proc/<pid>/stat. USER_HZ is
// 100 on every Linux ABI Go supports.
const clockTickNS = int64(time.Second / 100)

// parseProcStat extracts utime and stime from the contents of
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(b []byte) (procCPU, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procCPU{}, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procCPU{}, errors.New("proc stat: too few fields")
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat stime: %w", err)
	}
	return procCPU{userNS: ut * clockTickNS, sysNS: st * clockTickNS}, nil
}

func readProcCPU(pid int) (procCPU, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(b)
}

// parseVmHWM extracts the peak resident set, in kB, from the contents of
// /proc/<pid>/status.
func parseVmHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func readPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}
