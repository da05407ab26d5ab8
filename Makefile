GO ?= go

# Micro/hot-path benchmarks run long enough for stable numbers; the
# macro sweeps (full registry, full deployment, per-figure regeneration)
# are run for one iteration — their headline metrics are simulated time,
# which does not depend on iteration count. The gated targets (bench,
# bench-rebase, bench-compare) run each suite with -count 3 and bench2json
# keeps the minimum ns/op across repeats: host steal on shared machines
# only ever adds wall time, so min-of-3 estimates the true cost and keeps
# the ±20% compare gate from flapping. That triples the wall time of a
# gated bench run; bench-smoke stays single-shot.
MICRO ?= BenchmarkSimEventThroughput|BenchmarkSimEventHeap|BenchmarkShardWindowSparse|BenchmarkProcSwitch|BenchmarkProcSpawn|BenchmarkTrace|BenchmarkAoEHeaderMarshal|BenchmarkBitmap|BenchmarkStoreWrite|BenchmarkStoreWriteFragmented|BenchmarkMediatedReadRedirect|BenchmarkHistogramPercentile
MACRO ?= BenchmarkRegistrySweep|BenchmarkDeployment|BenchmarkFleetDeploy|BenchmarkElasticity|BenchmarkAblation

BMCASTLINT := bin/bmcastlint
# LINTJSON, when set, makes the lint target append every bmcastlint
# finding to this file as NDJSON (one record per finding); CI sets it
# and uploads the file as the lint artifact.
LINTJSON ?=

# BENCH_SUITE is the gated benchmark run shared by bench, bench-rebase and
# bench-compare: the micro and macro passes, concatenated on stdout for
# one bench2json parse. -cpu 1 pins GOMAXPROCS=1, the setting the baseline
# was recorded at, so row names carry no -N suffix on any host and match
# the baseline's.
BENCH_SUITE = ( $(GO) test -run '^$$' -bench '$(MICRO)' -benchmem -benchtime=1s -count 3 -cpu 1 . && \
	$(GO) test -run '^$$' -bench '$(MACRO)' -benchmem -benchtime=1x -count 3 -cpu 1 . )

.PHONY: test bench bench-rebase bench-smoke bench-compare lint check chaos elasticity identity

test:
	$(GO) build ./...
	$(GO) test ./...

# chaos runs the fault-injection and recovery suite under the race
# detector: the scripted fault schedules (internal/faults), the crash /
# failover / watchdog scenarios in vblade, aoe, core, cloud and testbed,
# and the top-level determinism-under-faults replay check.
chaos:
	$(GO) test -race -count=1 \
		./internal/faults/ ./internal/ethernet/ ./internal/vblade/ ./internal/aoe/
	$(GO) test -race -count=1 \
		-run 'Fault|Failover|Watchdog|Deadline|Crash|Chaos|DeadServer|Redeploy|MediaError|StopMidFlight' \
		./internal/core/ ./internal/cloud/ ./internal/testbed/ .

# elasticity runs the control-plane robustness suite under the race
# detector: admission/shedding, retry budgets, quarantine/probation,
# storm schedules, the tenant generator, and the end-to-end
# graceful-degradation cell.
elasticity:
	$(GO) test -race -count=1 \
		-run 'Frontend|Admission|Quarantine|DoubleRelease|Backoff|Retry' ./internal/cloud/
	$(GO) test -race -count=1 -run 'Storm|ZeroDuration|Overlapping' ./internal/faults/
	$(GO) test -race -count=1 ./internal/tenants/
	$(GO) test -race -count=1 -run 'Elasticity' ./internal/experiments/

# lint builds the repository's own vet tool and runs the bmcastlint
# analyzer suite — the syntactic checks (walltime, seededrand, simdrift,
# mapiter — DESIGN.md §7) and the CFG-based dataflow checks (spanleak,
# framebalance, pooledrelease — DESIGN.md §11) — over
# every package via the go vet driver, including cmd/ and the lint
# packages themselves, then the third-party checkers when available. CI
# installs staticcheck and govulncheck at pinned versions
# (.github/workflows/ci.yml); local runs skip them with a notice when
# they are not on PATH, because the build container has no module proxy
# to install them from (which is also why they are pinned in the
# workflow rather than via go.mod tool directives).
lint:
	$(GO) build -o $(BMCASTLINT) ./cmd/bmcastlint
	BMCASTLINT_JSON=$(LINTJSON) $(GO) vet -vettool=$(BMCASTLINT) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping (CI runs it pinned)"; fi

# check is the default pre-push gate: build + tests + the full lint suite.
check: test lint

# bench regenerates BENCH_results.json, the tracked perf baseline future
# PRs are measured against. Micro and macro passes are concatenated into
# one parse. The new numbers are gated against the previous baseline first
# (-compare exits non-zero on >20% ns/op or any allocs/op regression), so a
# regression leaves the tracked file untouched.
bench:
	$(BENCH_SUITE) | $(GO) run ./cmd/bench2json -out BENCH_results.new.json -compare BENCH_results.json
	mv BENCH_results.new.json BENCH_results.json

# bench-rebase regenerates the baseline without the regression gate — for
# deliberate suite-shape changes (a new benchmark, a cell added to the
# registry sweep) where the old numbers are not comparable.
bench-rebase:
	$(BENCH_SUITE) | $(GO) run ./cmd/bench2json -out BENCH_results.json

# bench-compare runs the tracked benchmark suite and checks it against the
# committed baseline without rewriting it; BENCH_compare.json is the fresh
# run (CI uploads it as an artifact).
bench-compare:
	$(BENCH_SUITE) | $(GO) run ./cmd/bench2json -out BENCH_compare.json -compare BENCH_results.json

# bench-smoke is the CI variant: every benchmark once, just to prove the
# harness and all benchmark code paths still run end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x -count 1 . \
	| $(GO) run ./cmd/bench2json -out BENCH_results.json

# identity checks that the working tree reproduces every output of
# revision BASE byte for byte: the bmcast-sim chaos schedule at -shards 0,
# 1 and 8 (stdout, trace, metrics; -shards 8 must also match -shards 1 on
# each side), bmcast-experiments -quick, the sharded fleet and elasticity
# cells, the traced fleet cell and its bmcast-obs text and -json reports,
# the tenant storm, an IDE deployment (stdout, trace, metrics), and traced
# bmcast-bench at seeds 1-3. Any program exiting non-zero also fails it.
# CI runs it with BASE=HEAD. See scripts/identity.sh.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	scripts/identity.sh $(BASE)
