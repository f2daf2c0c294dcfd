GO ?= go

.PHONY: build test race vet vet-tool lint fmt size bench bench-profile bench-sched check FORCE

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet-tool builds the repository's vet binary once so vet/lint runs
# reuse it instead of recompiling through `go run`.
VET_TOOL := bin/datacell-vet

vet-tool:
	$(GO) build -o $(VET_TOOL) ./cmd/datacell-vet

# vet runs the stock `go vet` passes plus the custom invariant analyzers
# (lockorder, atomicmix, capturerestore, errcmp — see docs/INVARIANTS.md
# and lockorder.conf).
vet: vet-tool
	./$(VET_TOOL) ./...

# lint is vet plus the external linters. staticcheck (curated set in
# staticcheck.conf) and govulncheck run only when installed: the CI lint
# job installs pinned versions; a hermetic local toolchain skips them
# with a notice.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI lint job runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipped (CI lint job runs it)"; \
	fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# size prints the non-test Go code-line count outside bench/ (blank and
# comment-only lines excluded): the one number a simplicity PR quotes
# before and after.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | grep -cvE '^\s*(//.*)?$$'

# bench runs the repository's benchmark, the command BENCHMARK.json names:
# socket to socket against a child datacelld, every workload (see
# bench/README.md).
bench:
	$(GO) run ./bench

# bench-<scenario> runs one hotpathbench scenario at full size and prints
# the report to stdout; bench-<scenario>-smoke is its CI sanity run (tiny
# workload, same code path). Scenarios (see cmd/hotpathbench):
#   partitioned  sharded ingest -> shard pipelines -> merge
#   windowed     event-time windows, flat vs sharded, in-order vs 10% disordered
#   join         stream-stream WITHIN join (flat vs co-partitioned) and
#                stream-table enrichment (flat vs broadcast)
#   durability   WAL-off vs WAL-on ingest, dirty-crash recovery time
#   multiquery   N routed filters vs per-query replicas at N = 1, 100, 10k,
#                and batch rows 128/4096/16384 at 1000 matching queries
# BENCH_CPUS_<scenario> is the GOMAXPROCS sweep of the scenarios that take
# one; the others run at the harness default.
BENCH_CPUS_partitioned := 1,2,4
BENCH_CPUS_windowed := 1,2,4
BENCH_CPUS_join := 1,2,4
bench_cpus = $(if $(BENCH_CPUS_$*),-cpus $(BENCH_CPUS_$*))

bench-%-smoke: FORCE
	$(GO) run ./cmd/hotpathbench -scenario $* -smoke $(bench_cpus) -o -

bench-%: FORCE
	$(GO) run ./cmd/hotpathbench -scenario $* $(bench_cpus) -o -

# Pattern targets cannot be .PHONY (phony targets skip implicit-rule
# search); depending on FORCE makes them always run instead.
FORCE:

# bench-profile reruns the partitioned scenario with CPU, allocation,
# mutex-contention, and blocking profiles armed, for hunting hot-path
# contention (inspect with `go tool pprof cpu.pprof` etc.). Profiling
# biases the timings, so the numbers printed here are not comparable to
# `make bench-partitioned` output.
bench-profile:
	$(GO) run ./cmd/hotpathbench -scenario partitioned -cpus 1,4 -o - \
		-cpuprofile cpu.pprof -memprofile mem.pprof \
		-mutexprofile mutex.pprof -blockprofile block.pprof

# bench-sched runs the scheduler micro-benchmarks with -benchmem: the
# steady-state firing loop must report 0 allocs/op and ~0 claim-misses.
bench-sched:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/scheduler/

check: build vet fmt test
