GO ?= go

.PHONY: all build test short race race-telemetry vet bench bench-check bench-smoke cluster-smoke metrics-smoke ppr-smoke drain-smoke tenant-smoke experiments clean

all: vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

# Race-check the instrumentation hot paths at full depth: counters and
# histograms hammered concurrently with scrapes, instrumented handlers.
race-telemetry:
	$(GO) test -race ./internal/telemetry/... ./internal/server/...

vet:
	$(GO) vet ./...

# Root-package benchmarks, then the serving kernel on ask_cold's own graph
# (4045 nodes, 64 030 edges, 2000 candidates, K = 10, L = 4): the sweep
# alone (ScoresSeeded) beside what an uncached ask pays (RankSeeded), with
# no daemon booted.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkRankSeeded|BenchmarkScoresSeeded' -benchmem ./internal/pathidx/

# The repo benchmark (bench/, its own module) is built only when the
# benchmark runs, so `go vet ./...` and `go test ./...` never see it. This
# vets it and runs its unit tests (< 1 s) against the current tree.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

# One short run of every benchmark workload (≈20 s): boots each topology
# as real kgvoted/kgrouter processes and makes every in-run correctness
# check, including five SIGKILL recoveries. Fails unless all four report
# correct=true with no failed operation.
bench-smoke:
	$(GO) run -C bench . -smoke

# Sharded-serving smoke (DESIGN.md §14): the in-process cluster suite —
# router merge bit-identical to a single-process oracle for N ∈ {1,2,4},
# partial degradation, replica convergence, misroute rejection — then
# the process-level test: 3 shard writers + 1 replica + router, SIGKILL
# one writer under load, assert partial answers, restart it, and assert
# WAL recovery and rejoin.
cluster-smoke:
	$(GO) test ./internal/shard/
	$(GO) test -v -run 'TestClusterEndToEnd' ./cmd/kgrouter/

# Boot the real daemon, drive traffic, and validate GET /metrics against
# the strict exposition checker (internal/telemetry/parse.go).
metrics-smoke:
	$(GO) test -v -run 'TestMetricsEndToEnd' ./cmd/kgvoted/

# ppr library + the one serving kernel (DESIGN.md §16) under the race
# detector: push bound held, repair = fresh, exact push = enumerator
# bitwise, and the engine's ranking = a fresh CSRScorer sweep.
ppr-smoke:
	$(GO) test -race ./internal/ppr/ ./internal/pathidx/ ./internal/core/

# Graceful-drain smoke: SIGTERM the real daemon with votes queued and
# mid-flight, restart it, and require every admitted vote to survive.
drain-smoke:
	$(GO) test -v -run 'TestDrain' ./cmd/kgvoted/

# Multi-tenant smoke (DESIGN.md §17): the registry suite (routing,
# golden bitwise isolation, quota shed codes, boot quarantine, purge
# semantics, API.md drift), then the e2e test that SIGKILLs a 3-tenant
# daemon and requires independent per-WAL recovery.
tenant-smoke:
	$(GO) test ./internal/tenant/
	$(GO) test -v -run 'TestTenantCrashRecoveryEndToEnd' ./cmd/kgvoted/

experiments:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
