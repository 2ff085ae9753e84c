PYTHON ?= python

.PHONY: tier1 test test-faults test-gateway smoke fuzz lint check bench \
	bench-portfolio bench-descent bench-lazy bench-profile bench-core \
	bench-gateway

# Tier-1 gate: the full test suite plus a 2-process solver-session smoke
# on the running example, so the parallel paths are exercised on every run.
tier1: test smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Deterministic fault-injection suite: worker kills, hangs, slow starts,
# checkpoint write failures (REPRO_FAULTS plans; see repro.testing.faults).
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m faults

# Solve-gateway suite incl. chaos drills (cache hit, warm-start, deadline
# expiry, worker kill); REPRO_GATEWAY_FAULTS arms the inject hooks.  Dev
# mode plus the two warning filters fail the run on a socket nobody
# closed or a handler task still pending at shutdown.
test-gateway:
	PYTHONPATH=src REPRO_GATEWAY_FAULTS=1 $(PYTHON) -X dev -m pytest -x -q \
		-m gateway -W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning

# A -j 2 session forks its helper only once a probe outlives the
# primary's load: the generation run has such a probe (about 300
# conflicts against a ~20 ms load), and the smoke fails unless its
# metrics show the helper forked.  The verification runs answer before
# that, so they race no helper.
# The running-example verification is UNSAT by design, so exit 1 is the
# expected outcome; any other code (0 = unexpectedly SAT, >=2 = crash) is
# a distinct, loud failure rather than being folded into the same test.
# Verification runs lazy, eager and with a DRAT proof, which must check;
# each is the descent with no objective, and the proof run's descent
# solves in process on one logging solver at every -j.
smoke:
	PYTHONPATH=src $(PYTHON) -m repro generate --case running-example -j 2 \
		--metrics smoke-metrics.json
	@$(PYTHON) -c "import json, sys; \
		workers = json.load(open('smoke-metrics.json')).get( \
			'service.workers', 0); \
		sys.exit(0 if workers >= 1 else \
			'smoke: generate -j 2 forked no helper')"
	@echo "smoke: generate -j 2 forked its helper"
	@for flags in --lazy --no-lazy --proof; do \
		out=$$(PYTHONPATH=src $(PYTHON) -m repro verify \
			--case running-example -j 2 $$flags); \
		rc=$$?; \
		echo "$$out"; \
		if [ $$rc -eq 0 ]; then \
			echo "smoke: verify -j 2 $$flags: unexpectedly SAT" >&2; \
			exit 1; \
		elif [ $$rc -ne 1 ]; then \
			echo "smoke: verify -j 2 $$flags: exit $$rc" >&2; \
			exit $$rc; \
		elif [ "$$flags" = "--proof" ] && ! echo "$$out" | \
				grep -q "DRAT proof of infeasibility: VALID"; then \
			echo "smoke: verify -j 2 --proof: proof not VALID" >&2; \
			exit 1; \
		fi; \
		echo "smoke: verify -j 2 $$flags: UNSAT as expected"; \
	done

# Differential fuzz: FUZZ_COUNT seeded scenarios through all three solver
# paths; failing seeds are shrunk and written to fuzz-failures/.  The
# paths share one loop (the descent) and differ only in encoding (eager
# or lazy) and session (serial or service).  The service forks its
# helpers only once a probe outlives the primary's load, so at seed 0
# FUZZ_COUNT=10 races no helper; tier-1's
# test_25_scenarios_agree_across_all_paths fuzzes the helper race.
FUZZ_COUNT ?= 25
FUZZ_SEED ?= 0
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed $(FUZZ_SEED) \
		--count $(FUZZ_COUNT) -j 2 --report fuzz-report.json

# Lint with ruff when it is installed (CLI or module); skip gracefully on
# machines without it, so `make check` works in minimal containers too.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi

check: lint tier1 test-faults

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-portfolio:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_portfolio.py \
		--benchmark-only -q

# Solver-service vs serial descent on the running example (same search,
# both wall times); writes the perf-trajectory data point
# BENCH_descent.json.
bench-descent:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_descent.py \
		--out BENCH_descent.json

# Lazy (CEGAR) vs eager encoding on all four case studies; writes clause
# counts, refinement rounds and wall-clock to BENCH_lazy.json.
bench-lazy:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_lazy.py \
		--out BENCH_lazy.json

# Phase-profiler overhead bound (<=5%) and attribution sanity on the
# running example; writes BENCH_profile.json.  Every bench-* target
# also appends a git-SHA-keyed record to BENCH_HISTORY.jsonl — render
# the trajectories with `python -m repro trend`.
bench-profile:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_profile.py \
		--out BENCH_profile.json

# Raw CDCL throughput (props/s) of the loaded kernel build — plus the
# interpreted source and the compiled speedup over it, when the compiled
# kernel is built — on the running example and Nordlandsbanen; writes
# BENCH_core.json.
bench-core:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_core.py \
		--out BENCH_core.json

# Gateway economics — cold solve vs fingerprint-cache hit vs delta-close
# warm start through a real in-process gateway; fails unless the cached
# hit is >=20x faster than the cold solve.  Writes BENCH_gateway.json.
bench-gateway:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py \
		--out BENCH_gateway.json
