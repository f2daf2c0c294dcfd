package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and parentheses; utime=1234 stime=56.
	stat := "4242 (data cell) d) S 1 4242 4242 0 -1 4194560 2512 0 0 0 1234 56 0 0 20 0 7 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.userNS != 1234*clockTickNS || cpu.sysNS != 56*clockTickNS {
		t.Errorf("got %+v", cpu)
	}
	if cpu.total() != 1290*10_000_000 {
		t.Errorf("total = %d ns, want 12.9 s", cpu.total())
	}
	for _, bad := range []string{"", "1 (x S 1 2", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tdatacelld\nVmPeak:\t 1752552 kB\nVmHWM:\t   21504 kB\nVmRSS:\t   20480 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 21504 {
		t.Errorf("got %d, %v", kb, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestPortsLine(t *testing.T) {
	m := portsLine.FindStringSubmatch("2026/09/25 18:49:00 datacelld: ingest=127.0.0.1:40001 results=127.0.0.1:40002 sql=127.0.0.1:40003")
	if m == nil || m[1] != "127.0.0.1:40001" || m[2] != "127.0.0.1:40002" || m[3] != "127.0.0.1:40003" || m[4] != "" {
		t.Errorf("without metrics: %q", m)
	}
	m = portsLine.FindStringSubmatch("datacelld: ingest=127.0.0.1:1 results=127.0.0.1:2 sql=127.0.0.1:3 metrics=http://127.0.0.1:4/metrics")
	if m == nil || m[4] != "http://127.0.0.1:4/metrics" {
		t.Errorf("with metrics: %q", m)
	}
	if portsLine.MatchString("datacelld: shutting down") {
		t.Error("matched an unrelated line")
	}
}

func TestFSTypeOf(t *testing.T) {
	mounts := "proc /proc proc rw 0 0\n/dev/vda / ext4 rw,relatime 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vdb /tmp/work/repo xfs rw 0 0\n"
	for dir, want := range map[string]string{
		"/root/repo/bench/out":     "ext4",
		"/tmp/x":                   "tmpfs",
		"/tmp/work/repo/bench/out": "xfs",
		"/tmp/work/repository":     "tmpfs",
		"/tmp":                     "tmpfs",
	} {
		if got := fsTypeOf(dir, mounts); got != want {
			t.Errorf("fsTypeOf(%s) = %s, want %s", dir, got, want)
		}
	}
	if got := fsTypeOf("/x", ""); got != "unknown" {
		t.Errorf("no mounts: %s", got)
	}
}

func TestWorkloadsMatchDefinition(t *testing.T) {
	t.Chdir("..")
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, def.EndToEnd...), def.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if stmts := w.ddl(); len(stmts) < 2 || stmts[0] != w.basketDDL {
			t.Errorf("%s: ddl() = %d statements", w.name, len(stmts))
		}
	}
	if n := len(findWorkload("fanout_1k").ddl()); n != 1+fanoutQueries {
		t.Errorf("fanout_1k registers %d statements, want the stream and %d queries", n, fanoutQueries)
	}
}
