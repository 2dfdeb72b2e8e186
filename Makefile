GO ?= go

.PHONY: all build test short race race-telemetry vet bench bench-check bench-serve bench-flush bench-farm bench-cluster farm-smoke cluster-smoke metrics-smoke overload-smoke scenario-smoke ppr-smoke bench-ppr drain-smoke tenant-smoke bench-tenants experiments clean

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

# Serving-path benchmark: legacy serialized ask vs lock-free snapshot
# ranking. Writes qps, p50/p99 latency, and allocs/op to BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/benchserve -out BENCH_serve.json
	$(GO) test -run xxx -bench 'BenchmarkAsk|BenchmarkSnapshotScoring' -benchmem .

# Flush-path benchmark: one 64-vote split-and-merge flush through the
# legacy path (no enumeration cache, one worker) vs the cached parallel
# pipeline. Appends a timestamped run to BENCH_flush.json.
bench-flush:
	$(GO) run ./cmd/benchserve -flush -flushout BENCH_flush.json

# Farm benchmark (DESIGN.md §13): the flush benchmark plus a pass that
# dispatches the per-cluster solves to 4 spawned worker processes,
# asserts bitwise-identical weights, and SIGKILLs one worker mid-flush.
# Appends the farm numbers alongside the flush run in BENCH_flush.json.
bench-farm:
	$(GO) run ./cmd/benchserve -flush -farm-workers 4 -flushout BENCH_flush.json

# Solve-farm smoke: unit + golden determinism tests (in-process workers),
# then the end-to-end test against real kgsolved processes, including
# SIGKILL of a worker between flushes.
farm-smoke:
	$(GO) test ./internal/solvefarm/
	$(GO) test -v -run 'TestFarmEndToEnd' ./cmd/kgsolved/

# Sharded-serving smoke (DESIGN.md §14): the in-process cluster suite —
# router merge bit-identical to a single-process oracle for N ∈ {1,2,4},
# partial degradation, replica convergence, misroute rejection — then
# the process-level test: 3 shard writers + 1 replica + router, SIGKILL
# one writer under load, assert partial answers, restart it, and assert
# WAL recovery and rejoin.
cluster-smoke:
	$(GO) test ./internal/shard/
	$(GO) test -v -run 'TestClusterEndToEnd' ./cmd/kgrouter/

# Sharded-serving benchmark: single-process vs routed vs replica-fanned
# ask throughput, merge-determinism and degradation checks included.
# Appends the run (with go/host provenance) to BENCH_serve.json.
bench-cluster:
	$(GO) run ./cmd/benchserve -cluster 3 -cluster-replicas 1 -out BENCH_serve.json

# Boot the real daemon, drive traffic, and validate GET /metrics against
# the strict exposition checker (internal/telemetry/parse.go).
metrics-smoke:
	$(GO) test -v -run 'TestMetricsEndToEnd' ./cmd/kgvoted/

# Overload smoke (DESIGN.md §12): flood /v1/vote far past the admission
# queue's capacity and verify the contract — exactly capacity admitted,
# everything else shed with 429 + Retry-After, /v1/ask responsive
# throughout, live heap bounded. Exits non-zero on any violation.
overload-smoke:
	$(GO) run ./cmd/benchserve -overload -overload-out BENCH_overload.json

# Adversarial-workload smoke (DESIGN.md §15): replay the spam-flood and
# colluding-ring scenarios with reputation quarantine on vs off and
# verify held-out ranking quality holds with the tracker and demonstrably
# degrades without it. Appends the run to BENCH_serve.json; exits
# non-zero on any ranking-quality violation.
scenario-smoke:
	$(GO) run ./cmd/benchserve -scenarios -scenario-docs 40 -scenario-train 20 -scenario-test 20 -scenario-include spam-flood,colluding-ring -out BENCH_serve.json

# Incremental-scorer smoke (DESIGN.md §16): the push/repair differential
# suite under the race detector, then the enum-vs-push benchmark across
# two Twitter scales. The bench self-asserts the certified error bound,
# pushes > 0, the ≥5x per-flush speedup floor on the larger profile, and
# near-flat push update cost as |E| grows; exits non-zero on violation.
ppr-smoke:
	$(GO) test -race ./internal/ppr/ ./internal/pathidx/ ./internal/core/
	$(GO) run ./cmd/benchserve -ppr -out BENCH_serve.json

bench-ppr:
	$(GO) run ./cmd/benchserve -ppr -out BENCH_serve.json

# Graceful-drain smoke: SIGTERM the real daemon with votes queued and
# mid-flight, restart it, and require every admitted vote to survive.
drain-smoke:
	$(GO) test -v -run 'TestDrain' ./cmd/kgvoted/

# Multi-tenant smoke (DESIGN.md §17): the registry suite (routing,
# golden bitwise isolation, quota shed codes, boot quarantine, purge
# semantics, API.md drift), the e2e test that SIGKILLs a 3-tenant daemon
# and requires independent per-WAL recovery, then the isolation bench in
# smoke mode — flood one tenant past its quota, assert quota-exact
# tenant_quota_exceeded sheds, bounded co-resident ask p95, and zero
# bitwise weight leakage. Exits non-zero on any violation.
tenant-smoke:
	$(GO) test ./internal/tenant/
	$(GO) test -v -run 'TestTenantCrashRecoveryEndToEnd' ./cmd/kgvoted/
	$(GO) run ./cmd/benchserve -tenants 3 -docs 40 -tenant-cap 4 -tenant-flood 200 -tenant-asks 100 -out ""

# Tenant isolation bench at full scale; appends a run to BENCH_serve.json.
bench-tenants:
	$(GO) run ./cmd/benchserve -tenants 4 -tenant-flood 3000 -tenant-asks 1000 -out BENCH_serve.json

experiments:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
