# Development entry points.  `make check` is the whole gate: `lint`,
# one simlint run of every rule family over src/ — the per-file rules,
# the `--deep` interprocedural pass, the `--shard` shard-affinity pass
# (R15-R19) and the `--scale` growth-dimension pass (R22-R26) —
# ratcheted against analysis-baseline.json so only NEW findings fail,
# which also regenerates the docs/shard-safety.md and
# docs/scale-readiness.md inventories; then one run of the tier-1 test
# suite, which holds every determinism, golden, sanitizer and
# observability check; then the benchmark's own tests, which guard the
# ledger hooks on the layers it measures.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint baseline test perfbench-test golden-guard \
	parallel-determinism shard-determinism bench experiments

check: lint test perfbench-test

lint:
	$(PYTHON) -m repro.analysis --deep --shard --scale src/repro \
	    --baseline analysis-baseline.json \
	    --shard-inventory docs/shard-safety.md \
	    --scale-inventory docs/scale-readiness.md

# Regenerate the findings baseline after paying down debt (the ratchet
# only ever tightens: run this when `lint` reports stale entries, not
# to absorb new findings).
baseline:
	$(PYTHON) -m repro.analysis --deep --shard --scale src/repro \
	    --write-baseline analysis-baseline.json

test:
	$(PYTHON) -m pytest -x -q

perfbench-test:
	$(PYTHON) -m pytest -q perfbench/tests

# Narrower runs of tier-1 tests that `test` already includes: the
# seed-42 goldens, workers=1 vs workers=N, and fleet shards 1/2/4.
golden-guard:
	$(PYTHON) -m pytest -x -q tests/experiments/test_goldens.py

parallel-determinism:
	$(PYTHON) -m pytest -x -q tests/experiments/test_parallel_determinism.py

shard-determinism:
	$(PYTHON) -m pytest -x -q tests/experiments/test_fleet.py

# The benchmark (BENCHMARK.json, perfbench/README.md): an untraced and
# a traced 25 s run of each workload at seed 1, whose reports are
# copied to benchmarks/perf/ (docs/performance.md quotes them).
bench:
	mkdir -p benchmarks/perf
	for w in table2_startup figure1_slowdown table1_wan fleet_sessions; do \
	    $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 25 \
	    && $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 25 \
	        --trace 1 \
	    && cp perfbench/out/$$w-seed1.json perfbench/out/$$w-seed1-trace.json \
	        benchmarks/perf/ || exit 1; \
	done

experiments:
	$(PYTHON) -m repro all
