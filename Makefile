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

# Repeated fault-injection runs over the transports plus the invariant and
# cross-engine suites (what the CI chaos soak step executes). The last line
# races the sweep workers against the merge worker over par-louvain's skip
# marks, whose horizons merge worker 0 spends for every row a told vertex
# appears in (the OutRows and Asymmetric tests drive that merge at up to 65
# ranks and two threads; ParallelFingerprint's three-rank, two-thread runs on
# the bench inputs, ~15 s), and buildRows' workers filling disjoint rows of
# shared arrays (BuildRows, RowsCanonical: three threads).
chaos:
	$(GO) test -race -count=3 -run 'Chaos|TCP' ./internal/comm
	$(GO) test -short -run 'Chaos|Invariant|CrossEngine' ./internal/core
	GOMAXPROCS=2 $(GO) test -race -run 'Skip|GoldenTrace|OutRows|Asymmetric|BuildRows|RowsCanonical|ParallelFingerprint' ./internal/core

# Short fuzz pass over every fuzz target (wire codecs, graph readers and Build,
# generator specs, the hash edge table of Fig. 6 and the ladder — freeze and
# iteration; no engine stores a level in it — par-louvain's level storage
# (FuzzBuildRows: the sorted rows of two levels against that table as oracle),
# its rows read through ghost after a full and a move-log propagation — and its
# refusal of a list with a mirror dropped or a negative weight — the gain scan
# against its scanning oracle, seq-louvain's and leiden's skipping sweep
# against the full sweep on lists with NaN, ±Inf, negative and zero-sum
# weights (FuzzSweepSkip), the whole-graph engines' direct call against the
# rank-0 harness).
# `go test -fuzz` takes one target per run, so iterate; FUZZTIME scales the
# per-target budget.
FUZZTIME ?= 10s
fuzz:
	@for pkg in ./internal/wire ./internal/graph ./internal/gencli ./internal/edgetable ./internal/metrics ./internal/movesched ./internal/core ./internal/algo; do \
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
# concurrent submitters, drain semantics (the CI serve step).
serve-e2e:
	$(GO) test -race -count=1 ./internal/serve/

# gofmt -l lists nonconforming files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt race

clean:
	$(GO) clean ./...
