# Convenience targets for the OSPREY reproduction. Everything is pure Go;
# no external dependencies are needed.

GO ?= go

# Coverage floor for cover-check (percent of statements in internal/...).
COVER_FLOOR ?= 85

.PHONY: all build vet fmt-check ci check-ci-mirror check-doc-names check-tracked-ignored test test-go test-short test-shuffle test-single-core race race-lifecycle race-numerics race-all smoke-ctl soak soak-shard soak-tenant staticcheck bench bench-smoke bench-e2e-smoke bench-json bench-compare fuzz-smoke figures figures-quick cover cover-check clean

all: build test

# CI_STEPS is the single source of truth for the per-push CI pipeline.
# `make ci` runs the steps in order; the `test` job in
# .github/workflows/ci.yml runs `make <step>` once per step in the same
# order; scripts/check_ci_mirror.sh (itself the first step) fails the
# build when the two lists diverge. To change the pipeline, edit this
# variable and mirror the step list in ci.yml — see DESIGN.md,
# "Load & chaos testing", for the mirror rule.
CI_STEPS := check-ci-mirror check-tracked-ignored vet fmt-check build check-doc-names test-go test-shuffle test-single-core race-lifecycle race-numerics smoke-ctl

# CI_JOBS maps each dedicated (non-`test`) ci.yml job to the make target
# it must run, as job:target pairs. scripts/check_ci_mirror.sh verifies
# every pair has a matching `run: make <target>` line inside that job, so
# the dedicated jobs obey the same edit-both-files rule as CI_STEPS.
CI_JOBS := coverage:cover-check soak:soak soak-shard:soak-shard soak-tenant:soak-tenant staticcheck:staticcheck bench-e2e-smoke:bench-e2e-smoke

ci: $(CI_STEPS)

check-ci-mirror:
	./scripts/check_ci_mirror.sh

# Generated output (soak reports, coverage, fresh bench snapshots) is
# listed in .gitignore and must not be committed: a tracked file that is
# also ignored goes stale silently and `make clean` dirties the tree.
check-tracked-ignored:
	@tracked=$$(git ls-files -ci --exclude-standard); \
	if [ -n "$$tracked" ]; then \
		echo "tracked files that .gitignore ignores (git rm --cached them):"; \
		echo "$$tracked"; \
		exit 1; \
	fi

build:
	$(GO) build ./...

# Every test/benchmark/fuzz/example name cited in DESIGN.md,
# EXPERIMENTS.md, README.md and docs/*.md must exist in the root module or
# in bench/ (go test -list), so a deleted test cannot leave a claim behind.
check-doc-names:
	GO=$(GO) ./scripts/check_doc_names.sh

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; \
		echo "$$unformatted"; \
		gofmt -d .; \
		exit 1; \
	fi

test-go:
	$(GO) test ./...

# Shuffled test order: catches inter-test state leaks (shared registries,
# leftover files) that a fixed order hides.
test-shuffle:
	$(GO) test -shuffle=on ./...

# GOMAXPROCS=1 over the numerics, plus internal/emews so its goroutine-leak
# gate (TestMain) also runs on one core.
test-single-core:
	GOMAXPROCS=1 $(GO) test ./internal/gp/ ./internal/music/ ./internal/sobolidx/ ./internal/rt/ ./internal/parallel/ ./internal/linalg/ ./internal/emews/

# Race detector over the distributed task lifecycle (emews), the
# scheduler, the durability layer (WAL + store recovery), and the load
# harness with its chaos proxy.
race-lifecycle:
	$(GO) test -race ./internal/emews/... ./internal/scheduler/... ./internal/wal/... ./internal/aero/... ./internal/parallel/... ./internal/chaos/... ./internal/loadgen/...

race-numerics:
	$(GO) test -race -run 'SerialParallel|Parallel|Incremental|MeanCache|Predictor|Concurrent|Interleav|RunGSA' ./internal/gp/ ./internal/music/ ./internal/sobolidx/ ./internal/rt/ ./internal/core/ ./internal/linalg/

# End-to-end CLI smoke: a daemon on a temp -data-dir driven through real
# ospreyctl subcommands (exit codes + JSON shapes), the daemon's own
# SIGKILL/recover round trip, and aero-server's token-file checks and
# SIGINT/reboot round trip on -data-dir.
smoke-ctl:
	$(GO) test -run 'TestOspreyctlSmoke|TestDurabilityRoundTrip|TestLoadAuth|TestDataDirRoundTrip' -count=1 ./cmd/ospreyctl/ ./cmd/osprey-daemon/ ./cmd/aero-server/

# The default test path runs the race detector over the lifecycle
# packages so the fixed races stay fixed.
test: race
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race: race-lifecycle race-numerics

race-all:
	$(GO) test -race ./...

# Deterministic load + chaos soak (the CI soak job): two same-seed runs
# through the full fault schedule — connection kills, refuse windows,
# latency injection, worker-pool crash, daemon crash, torn-WAL crash —
# asserting the ledger/WAL invariants and identical workload digests.
# The JSON run report lands in SOAK_report.json.
soak:
	$(GO) run ./cmd/osprey-loadgen -seed 42 -duration 30s -rate 150 -workers 8 -faults default -runs 2 -out SOAK_report.json

# Sharded soak (the CI soak-shard job): two same-seed runs over a 3-shard
# replicated group through the shard-failover schedule — two primary kills
# with follower promotion, plus the network and pool faults — asserting
# the same 15 invariants (the 4 tenant ones skipped), the cross-shard WAL
# audit, and identical workload digests. The JSON run report lands in
# SOAK_shard_report.json; a digest mismatch or invariant violation exits
# non-zero.
soak-shard:
	$(GO) run ./cmd/osprey-loadgen -seed 73 -duration 30s -rate 150 -workers 8 -shards 3 -faults shard-failover -runs 2 -out SOAK_shard_report.json

# Multi-tenant soak (the CI soak-tenant job): two same-seed runs with
# three tenants — bearer-token auth, per-tenant quotas with a noisy
# neighbor, private streams, live cross-tenant isolation probes, and a
# streaming watch subscription per tenant — through the tenant fault
# schedule (kills, refuse windows, latency, pool crash; no daemon crashes,
# so watches stay connected). Asserts the four tenant invariants (zero
# cross-tenant reads, quota conformance, per-tenant ledger balance,
# no-dup watch delivery with drops accounted) on top of the base set,
# plus identical workload digests. The report lands in
# SOAK_tenant_report.json.
soak-tenant:
	$(GO) run ./cmd/osprey-loadgen -seed 91 -duration 30s -rate 150 -workers 8 -tenants 3 -faults tenant -runs 2 -out SOAK_tenant_report.json

# Staticcheck over the whole module (the CI staticcheck job). The binary
# is not vendored; install the pinned version once with
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
STATICCHECK_VERSION := 2024.1.1
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; }
	staticcheck ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration per benchmark: the nightly workflow's smoke pass.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# The end-to-end benchmark's own tests (the CI bench-e2e-smoke job): its
# unit tests, the BENCHMARK.json sync check and the -quick smoke run of
# all four workloads. bench/ is a module of its own, so the root
# `go test ./...` does not reach them.
bench-e2e-smoke:
	cd bench && $(GO) test ./...

# Committed benchmark snapshot: the root-package paper benchmarks converted
# to JSON for before/after comparison (see BENCH_baseline.json).
bench-json:
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%F).json

# Fresh snapshot vs the committed baseline; fails on a >15% ns/op
# regression (the nightly bench-regression job). The per-benchmark diff
# lands in bench-diff.json.
bench-compare:
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -out BENCH_fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_fresh.json -tolerance 0.15 -diff-out bench-diff.json

# Short coverage-guided fuzz of the WAL record decoder, the emews
# binary wire-frame decoder and codec round trip, the emews task-log
# record decoder, the loadgen fault DSL and the R(t) estimate decoder
# (nightly job). The -run lines run only
# their fuzz target, not the package's other tests.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseRecord -fuzztime=30s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/emews/
	$(GO) test -run FuzzWireRoundTrip -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/emews/
	$(GO) test -run FuzzDecodeMutation -fuzz=FuzzDecodeMutation -fuzztime=30s ./internal/emews/
	$(GO) test -run FuzzParseFaults -fuzz=FuzzParseFaults -fuzztime=30s ./internal/loadgen/
	$(GO) test -run FuzzDecodeEstimate -fuzz=FuzzDecodeEstimate -fuzztime=30s ./internal/core/

# Regenerate every paper table/figure into out/ (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/figures -all -out out

figures-quick:
	$(GO) run ./cmd/figures -quick -all -out out

cover:
	$(GO) test -cover ./internal/...

# Coverage profile over internal/..., HTML report, and a floor check:
# total statement coverage below $(COVER_FLOOR)% fails (the CI coverage
# job uploads cover.html as an artifact).
cover-check:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

clean:
	rm -rf out cover.out cover.html BENCH_fresh.json bench-diff.json SOAK_report.json SOAK_shard_report.json SOAK_tenant_report.json
