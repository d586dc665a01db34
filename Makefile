GO ?= go

.PHONY: all build vet test race bench bench-smoke loc loc-check rerank-digest benchmark-smoke benchmark serve soak scaleout clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The tests that skip unless their variable is set: a live process, a
# multicore box, a digest file, a soak, a corpus to write.
ENV_GATED := TestRerankStreamDigest|TestLiveServiceHTTP|TestLiveServiceCrashRecovery|TestLiveServiceGracefulShutdown|TestScaleOutFleetSurvivesNodeKill|TestShardedIndexBuildSpeedupMulticore|TestIncrementalMutateSpeedupMulticore|TestQoSSoak|TestWriteFuzzCorpus

# Every test under the race detector (CI's race leg). -v puts each skip in
# the log, and a skip outside ENV_GATED fails the target: a proof that
# stops running shows, and a new proof needs no list of its own.
race:
	@log=$$(mktemp); trap 'rm -f "$$log"' EXIT; \
	if ! $(GO) test -race -v ./... > "$$log" 2>&1; then cat "$$log"; exit 1; fi; \
	grep -E '^(ok|FAIL|\?) ' "$$log"; \
	if grep -E -- '--- SKIP: ' "$$log" | grep -Ev -- '--- SKIP: ($(ENV_GATED)) \('; then \
		echo "make race: the tests above skipped; only ENV_GATED ones may"; exit 1; \
	fi

# The microbenchmark families worth a look by hand — one per layer of the
# read, write, durability and routing paths (README "Benchmarks" maps each
# to the BENCHMARK.json metric that watches the layer on every PR) plus the
# paper's Fig. 10 cells — spelled once for both targets below.
BENCH_FAMILIES := Fig10|RankedScan|RankCompute|RankCompile|NewEngine|EndToEndSearch|DataGraphBuild|IndexBuild|MutateIncremental|RerankResidual|WALAppend|RecoveryReplay|QueryStream|QueryDrain|AdmissionOverhead|RoutedQuery

# Textual benchmark pass; read it on a quiet box, it gates nothing.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_FAMILIES)' -benchmem .

# Every family compiles and runs once (CI's "Bench smoke" step).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_FAMILIES)' -benchtime 1x .

# Non-test Go line count outside benchmark/ — the figure the "one path per
# job" deletion campaign (ROADMAP.md) is measured by. (.bench_build/ is
# `make benchmark`'s build cache, not source.)
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The ratchet: `make loc` may not exceed LOC_BUDGET, so deleted lines stay
# deleted. A PR that removes lines lowers it to its own result; one that
# has to raise it says why in CHANGES.md.
LOC_BUDGET := 16373

loc-check:
	@n=$$($(MAKE) -s loc); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then echo "make loc = $$n exceeds LOC_BUDGET = $(LOC_BUDGET)"; exit 1; fi; \
	echo "make loc = $$n (budget $(LOC_BUDGET))"

# Same float program as BASE: run the seeded re-rank stream of
# rerank_digest_test.go here and in a scratch copy of BASE's tree, and
# compare every raw and served score digest. The copy gets this tree's test
# file: BASE's own may be missing, hash fewer tables or pin knobs this tree
# no longer has. Nothing is fetched, nothing is kept.
BASE ?= HEAD^

rerank-digest:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	cp rerank_digest_test.go "$$tmp/base/"; \
	(cd "$$tmp/base" && SIZELOS_DIGEST_OUT="$$tmp/base.txt" $(GO) test -count=1 -run TestRerankStreamDigest -v .) | sed -n 's/.*go:[0-9]*: \(.* re-ranks, \)/base  \1/p'; \
	SIZELOS_DIGEST_OUT="$$tmp/head.txt" $(GO) test -count=1 -run TestRerankStreamDigest -v . | sed -n 's/.*go:[0-9]*: \(.* re-ranks, \)/head  \1/p'; \
	cmp "$$tmp/base.txt" "$$tmp/head.txt"; \
	echo "rerank-digest: $$(wc -l < "$$tmp/head.txt") re-ranks, raw and served digests equal to $(BASE)"

# The repo benchmark (BENCHMARK.json, benchmark/README.md): its own
# self-test, and the full run the driver executes.
benchmark-smoke:
	$(GO) test -count=1 -run TestSmoke ./benchmark

benchmark:
	bash benchmark/run.sh

# Run the multi-tenant search service on :8080 with the demo tenants.
serve:
	$(GO) run ./cmd/ossrv

# 30s closed-loop QoS soak: sustained mixed load, asserts no p99
# collapse and flat goroutine/heap footprints (docs/QOS.md).
soak:
	SIZELOS_SOAK=1 $(GO) test -run TestQoSSoak -count=1 -v -timeout 5m ./internal/tenancy

# Fleet node-kill integration leg: three ossrv nodes over one shared
# data dir behind osrouter, SIGKILL an owner while osload streams
# through the front door, require zero lost acked mutations
# (docs/SCALEOUT.md).
scaleout:
	SIZELOS_INTEGRATION=1 $(GO) test -run TestScaleOutFleetSurvivesNodeKill -count=1 -v -timeout 10m .

clean:
	$(GO) clean ./...
