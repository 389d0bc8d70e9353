# Developer targets. `make check` is the full verification gate: build,
# vet, the test suite, and the test suite again under the race detector
# (the server runs requests, batch items and re-plans on their own
# goroutines over shared caches, so racy regressions must not slip
# through).

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build vet test race loc bench bench-netdiff crossval solver-diff netdiff fuzz-crash replay-smoke corpus-check

check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines outside bench/: the size ROADMAP aim 2 says to push
# down. Print it before and after a change that claims to simplify.
# It is a ratchet: the count may not exceed LOC_CEILING (CI runs this),
# and a PR that lowers the count lowers the ceiling to its new count.
LOC_CEILING := 23868

loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l); \
	echo $$n; \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "make loc: $$n non-test Go lines exceed LOC_CEILING = $(LOC_CEILING) (Makefile)" >&2; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# Collapse-bias sweep (E20): the max-of-means parallel collapse vs the
# free-choice net oracle's exact expected execution time, over the
# synthetic fork-join grid (pinned to the d·H_k closed form) and every
# corpus system. Writes the raw rows to BENCH_netdiff.json.
bench-netdiff:
	$(GO) run ./cmd/wfmsbench -netdiff-json BENCH_netdiff.json

# Differential validation sweep: random systems cross-checked between
# the analytic stack, the simulator, and closed-form oracles. Failing
# systems are shrunk and written to crossval-corpus/ as reproducers.
crossval:
	$(GO) run ./cmd/wfmscheck -systems 200 -seed 1 -out crossval-corpus
	$(GO) run ./cmd/wfmscheck -systems 25 -seed 1 -mutate

# Net-differential sweep: the collapsed analytic turnaround, the
# free-choice net oracle, and the true-concurrency simulator
# cross-checked on random systems and the corpus, plus the mutation
# self-test — standard crossval is structurally blind to a collapse
# perturbation (it hits both sides of every legacy comparison); only
# the net route can see it.
netdiff:
	$(GO) run ./cmd/wfmscheck -net -systems 50 -seed 1 -out crossval-corpus
	$(GO) run ./cmd/wfmscheck -net -corpus corpus
	$(GO) run ./cmd/wfmscheck -net -systems 15 -seed 1 -mutate -fault collapse-bias

# Solver-differential sweep: the same availability CTMCs solved by GTH
# (dense, and auto up to 512 states, bit for bit) and by sparse
# Gauss-Seidel, and the GTH Erlang phase-expanded marginals against a
# Gauss-Seidel solve of the same phase chain, must agree to solver
# tolerance, and GTH and the sparse path must reject the same
# degenerate chains.
# Deterministic and simulation-free, so it sweeps many more systems.
solver-diff:
	$(GO) run ./cmd/wfmscheck -solver-diff -systems 500 -seed 1 -out crossval-corpus

# Online-calibration smoke: the wfmssim → wfmsreplay → wfmsd loop run
# in-process — a simulated trail whose behavior drifts from the designed
# model must invalidate the warm model and trigger a recalibrated
# rebuild on the next assessment.
replay-smoke:
	$(GO) test ./internal/replay -run TestReplaySmoke -v -count=1

# Corpus reproducibility gate: re-convert every entry of the
# imported-workflow corpus from corpus/manifest.json and diff against
# the checked-in wfjson byte for byte. A mismatch means the converter's
# output changed — either fix the regression or deliberately regenerate
# with `go run ./cmd/wfmsimport -rebuild corpus` and commit the diff.
corpus-check:
	$(GO) run ./cmd/wfmsimport -rebuild corpus -check

# Crash-safety fuzz: mutated request bodies through the full /v1/assess
# handler. The server must answer every input with well-formed JSON (a
# valid assessment or a typed error body) and never panic.
fuzz-crash:
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzAssessCrashSafety -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s
