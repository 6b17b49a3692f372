GO ?= go

.PHONY: all build test race bench-test vet fmt check chaos fuzz compare serve-e2e clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a nested module the root ./... patterns cannot see; its tests
# build the benchmark against this checkout and smoke every workload.
bench-test:
	$(GO) test -C bench ./...

vet:
	$(GO) vet ./...

# Repeated fault-injection runs over the transports, comm.RunGroup's
# goroutine-leak test on mem, sim and chaos groups, the sim group's abort
# (SimClose), the invariant and cross-engine suites, and the check that the
# in-process "chaos" transport injects faults and still returns the mem
# run's result (ChaosTransport) — what the CI chaos soak step executes. The last line
# also races comm.RunGroup's cancellation watchdog against ranks parked in a
# collective (CancelMidRun), holds both engine families to the one cancel
# rule of the level driver (HierarchyCancel, CancelAtLevelStart), and
# races the sweep workers against the merge worker over par-louvain's skip
# marks, whose horizons merge worker 0 spends for every row a told vertex
# appears in (the OutRows and Asymmetric tests drive that merge at up to 65
# ranks and two threads; ParallelFingerprint's three-rank, two-thread runs on
# the bench inputs, ~15 s), and buildRows' workers filling disjoint rows of
# shared arrays (BuildRows, RowsCanonical: three threads).
# ExactCounts and ReturnRule hold par-louvain's moves to the same counts at
# every rank count; PushSubscriptions holds every rank's pushed totals and
# every owner's subscriber list to the owners' state (scripted, over mem and
# TCP), IterationRounds an inner iteration to three rounds, and AdmissionFloor
# the floor each iteration's events report to its rule, and ScoreMatchesParent
# the branch-free score, relocate and delta merge to their branching oracles
# at one to three ranks — all at 2 Ps, as CI runs them.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|TCP|RunGroup|SimClose' ./internal/comm
	$(GO) test -short -run 'Chaos|Invariant|CrossEngine' ./internal/core
	$(GO) test -race -run 'ChaosTransport' ./internal/algo
	GOMAXPROCS=2 $(GO) test -race -run 'Skip|GoldenTrace|OutRows|Asymmetric|BuildRows|RowsCanonical|ParallelFingerprint|CancelMidRun|HierarchyCancel|CancelAtLevelStart|ExactCounts|ReturnRule|PushSubscriptions|IterationRounds|AdmissionFloor|ScoreMatchesParent' ./internal/core

# Short fuzz pass over every fuzz target (wire codecs, graph readers, Build and
# the rank rows lpa runs on — FuzzBuild: Build and Partition.InRows at
# one to three ranks against comparison-sort oracles — generator specs, the hash edge table of Fig. 6 and the ladder — freeze and
# iteration; no engine stores a level in it — par-louvain's level storage
# (FuzzBuildRows: the sorted rows of two levels against that table as oracle),
# its rows read through ghost after a full and a move-log propagation — and its
# refusal of a list with a mirror dropped or a negative weight — the gain scan
# against its scanning oracle, par-louvain's score, relocate and delta merge
# against their branching oracles on lists with zero, fractional and
# duplicate weights and self-loops (FuzzScore), seq-louvain's and leiden's skipping sweep
# against the full sweep on lists with NaN, ±Inf, negative and zero-sum
# weights (FuzzSweepSkip), the whole-graph engines' direct call against the
# rank-0 harness, and lpa at one to three ranks against plp (FuzzLPA)), and
# the event recorder's byte log against the events emitted into it, names,
# negative ints and float bits included (FuzzRecorder).
# `go test -fuzz` takes one target per run, so iterate; FUZZTIME scales the
# per-target budget.
FUZZTIME ?= 10s
fuzz:
	@for pkg in ./internal/wire ./internal/graph ./internal/gencli ./internal/edgetable ./internal/metrics ./internal/movesched ./internal/core ./internal/algo ./internal/labelprop ./internal/obs; do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Sweep every registered algorithm over the benchmark graph families on
# tiny inputs with invariants on, asserting each cell yields a valid
# partition (the CI smoke step). Full sweeps: `go run ./cmd/compare`.
compare:
	$(GO) run ./cmd/compare -smoke

# Job-service e2e suite under the race detector: HTTP lifecycle, queue
# overflow, cancellation reaching the engines, SSE backlog-then-live,
# concurrent submitters, drain semantics (the CI serve step); and the
# telemetry packages, whose event tail (obs.StreamEvents) backs both the
# per-job SSE stream and the cluster collector's /events.
serve-e2e:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/obs/...

# gofmt -l lists nonconforming files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt race

clean:
	$(GO) clean ./...
