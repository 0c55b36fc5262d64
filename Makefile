GO ?= go

.PHONY: build test check bench-compare figs-compare examples fuzz simtest soak fmt loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: formatting cleanliness, vet, the full test suite under the
# race detector (which also exercises the parallel sweep runner), the
# allocation guards again without it (the race detector shifts their exact
# counts), and a 1-iteration smoke of the go-test benchmarks in bench_test.go and of the
# event-queue driver in internal/sim so they keep compiling and running.
# Performance claims are made with bench-compare.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'SteadyStateAllocs|RunAllocs' -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkEmulatorThroughput(Probed)?$$' -benchtime 1x -benchmem .
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEngineQueue' -benchtime 1x
	$(MAKE) examples

# Build and run every example (the trace-replay and churn demos at short
# horizons via their -dur flags; each of the others takes under a second),
# so the examples and the facade they exercise stay runnable under tier-1.
# The tracing example writes trace.jsonl into the working directory.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/cellular_trace -dur 12s
	$(GO) run ./examples/churn -dur 4s
	$(GO) run ./examples/datacenter
	$(GO) run ./examples/failover
	$(GO) run ./examples/fairness
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tracing
	$(GO) run ./examples/wifi_cellular

# Before/after of the repository benchmark (see benchmark/README.md):
# check BASE out into a temporary directory, run `go run ./benchmark -out`
# there and here at the same seed, and print the paired comparison — exit
# status 1 when a digest or count differs or a metric regressed past its
# bound. `make bench-compare BASE=HEAD~1`; ~2 min per side.
BENCH_SEED ?= 1
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [BENCH_SEED=n]"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
		(cd "$$tmp/base" && $(GO) run ./benchmark -seed $(BENCH_SEED) -out "$$tmp/base.json" >/dev/null) && \
		$(GO) run ./benchmark -seed $(BENCH_SEED) -out "$$tmp/change.json" >/dev/null && \
		$(GO) run ./benchmark -compare "$$tmp/base.json" "$$tmp/change.json"

# Before/after of every experiment table: check BASE out into a temporary
# directory, build mpccbench there and here, run `-exp all $(FIGS_ARGS)` on
# both and diff stdout with the `[id: … wall …]` timing lines removed — exit
# status 1 on any difference. The check for a refactor of internal/exp:
# `make figs-compare BASE=HEAD~1 FIGS_ARGS='-dur 4s -warmup 2s -workers 1'`;
# ~30 s per side at that scale.
FIGS_ARGS ?= -dur 4s -warmup 2s
figs-compare:
	@test -n "$(BASE)" || { echo "usage: make figs-compare BASE=<rev> [FIGS_ARGS='-dur 4s -warmup 2s']"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
		(cd "$$tmp/base" && $(GO) build -o "$$tmp/mpccbench.base" ./cmd/mpccbench) && \
		$(GO) build -o "$$tmp/mpccbench.change" ./cmd/mpccbench && \
		"$$tmp/mpccbench.base" -exp all $(FIGS_ARGS) | grep -v '^\[' > "$$tmp/base.txt" && \
		"$$tmp/mpccbench.change" -exp all $(FIGS_ARGS) | grep -v '^\[' > "$$tmp/change.txt" && \
		diff "$$tmp/base.txt" "$$tmp/change.txt" && echo "figs-compare: every table identical to $(BASE)"

# Deep simulation-testing sweep: SIMTEST_N randomized scenarios under the
# full invariant oracle (see internal/simtest and DESIGN.md "Correctness
# architecture"). The in-test default is a few hundred scenarios; this
# target raises the budget to 10000 for a pre-merge soak (memory stays flat:
# the sweep keeps only failing reports). Failing scenarios shrink themselves
# and print a one-line SIMTEST_SCENARIO repro command.
simtest:
	SIMTEST_N=$(or $(SIMTEST_N),10000) $(GO) test ./internal/simtest -count=1 -v -run TestRandomScenarios
	$(GO) test -race ./internal/simtest -count=1

# Overload-survival soak: SIMTEST_N generated churn scenarios — open-loop
# arrivals, admission shedding, retry backoff, session teardown — audited
# under the full invariant oracle (session ledger, server budgets, pool-leak
# drain checks) with the race detector on, plus the graceful-degradation
# knee oracle. Failing scenarios shrink themselves and print a one-line
# SIMTEST_SCENARIO repro command.
soak:
	SIMTEST_N=$(or $(SIMTEST_N),2000) $(GO) test -race ./internal/simtest -count=1 -v -run 'TestChurnSoak'
	$(GO) test -race ./internal/simtest -count=1 -v -run 'TestChurnGracefulDegradation'

# Short fuzz pass over every native fuzz target.
fuzz:
	$(GO) test ./internal/sim -fuzz FuzzTimingWheel -fuzztime 20s
	$(GO) test ./internal/fairness -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzRangeSet -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzFaultTimeline -fuzztime 10s
	$(GO) test ./internal/netem -fuzz FuzzParseBWTrace -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzEncodeEvent -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzAppendNsFloat -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzParseEvent -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/obs -fuzz FuzzParseTimeline -fuzztime 10s -fuzzminimizetime 2s

fmt:
	gofmt -l -w .

# Non-test and test Go line counts per package (benchmark/ included for
# reference), so "less code" is a measured quantity: run it at the parent
# and at the change and put both in CHANGES.md.
loc:
	@printf '%-28s %8s %8s\n' package non-test test
	@for d in $$(find . -name '*.go' -not -path './.git/*' -exec dirname {} \; | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l); \
		t=$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-28s %8d %8d\n' $$d $$n $$t; \
	done
