# Development entry points.  `make check` is the whole gate: the
# simlint static-analysis pass over src/ (per-file rules plus the
# `--deep` interprocedural pass, ratcheted against
# analysis-baseline.json so only NEW findings fail), the shardcheck
# shard-affinity pass (rules R15-R19, which also regenerates
# docs/shard-safety.md), the scalecheck growth-dimension pass (rules
# R22-R26, which regenerates docs/scale-readiness.md), and one run of
# the tier-1 test suite, which holds every determinism, golden,
# sanitizer and observability check.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint shardcheck scalecheck baseline test golden-guard \
	parallel-determinism shard-determinism bench experiments

check: lint shardcheck scalecheck test

lint:
	$(PYTHON) -m repro.analysis --deep src/repro \
	    --baseline analysis-baseline.json

# The shard-affinity pass (rules R15-R19) over the model tree, under
# the same ratchet, regenerating the docs/shard-safety.md inventory.
shardcheck:
	$(PYTHON) -m repro.analysis --shard src/repro \
	    --baseline analysis-baseline.json \
	    --shard-inventory docs/shard-safety.md

# The growth-dimension pass (rules R22-R26) over the model tree,
# under the same ratchet, regenerating the docs/scale-readiness.md
# inventory.
scalecheck:
	$(PYTHON) -m repro.analysis --scale src/repro \
	    --baseline analysis-baseline.json \
	    --scale-inventory docs/scale-readiness.md

# Regenerate the findings baseline after paying down debt (the ratchet
# only ever tightens: run this when `lint` reports stale entries, not
# to absorb new findings).
baseline:
	$(PYTHON) -m repro.analysis --deep src/repro \
	    --write-baseline analysis-baseline.json

test:
	$(PYTHON) -m pytest -x -q

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
