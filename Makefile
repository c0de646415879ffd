# Reproduction of Greenberg & Bhatt, "Routing Multiple Paths in
# Hypercubes" (SPAA 1990). Stdlib-only; all targets work offline.

GO ?= go

.PHONY: all check build vet fmt staticcheck test test-short race bench experiments examples fuzz-short cover clean

all: check

# The default verification path: build, vet, the gofmt gate,
# staticcheck (when installed), tests, and the race detector (the
# netsim batch runner, the mpbench worker pool, and the core arena
# builders' per-worker fan-out are concurrent, so -race is part of the
# gate, not an extra; the core package's parallel-build tests force
# multiple workers regardless of host core count).
check: build vet fmt staticcheck test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l lists every file whose formatting differs from gofmt's;
# any listed file fails the gate, and the list names them.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -l . lists files that need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# staticcheck is optional tooling: run it when the binary is on PATH
# (CI installs it), skip quietly when it is not — the offline gate
# must not require network access to fetch it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Go benchmarks. End-to-end timing lives in perfbench/ (see
# BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./...

# Short coverage-guided fuzz smoke: every fuzz target for a bounded
# wall-clock slice (go test -fuzz takes exactly one target per run).
# CI runs this on top of the checked-in regression corpora that plain
# `go test` already replays.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzScheduleInvariants -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzPerStepDeterminism -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzSimulate$$ -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateFaults -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateProbed -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateSharded -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateOpenLoop$$ -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateOpenLoopSharded -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzOpenLoopLiveness -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzGrayRoundTrip -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzMomentFlip -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzPrefixConsistency -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzDisperseReconstruct -fuzztime=$(FUZZTIME) ./internal/ida
	$(GO) test -run=^$$ -fuzz=FuzzGFInverse -fuzztime=$(FUZZTIME) ./internal/ida
	$(GO) test -run=^$$ -fuzz=FuzzArenaRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzDenseMetrics -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSelfHealOpenLoop -fuzztime=$(FUZZTIME) ./internal/selfheal
	$(GO) test -run=^$$ -fuzz=FuzzStrategyRoutes -fuzztime=$(FUZZTIME) ./internal/routing

# Regenerate every paper-vs-measured table and fail if any differs
# from EXPERIMENTS.md. Run from the repository root.
experiments:
	$(GO) run ./cmd/mpbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gridrelax
	$(GO) run ./examples/faultpaths
	$(GO) run ./examples/wormhole
	$(GO) run ./examples/broadcast
	$(GO) run ./examples/bitonic

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
