# One-command gates for this reproduction. PYTHONPATH-based so no
# install step is required (the container has no network).

PY := PYTHONPATH=src python

.PHONY: test selfcheck bench-smoke bench-json examples serve-smoke check cluster-smoke obs-smoke perf-smoke perf-pairs

# Docs-facing smoke: every example must run end to end (CI mirrors
# this on both batch backends with a hard per-script timeout).
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src timeout 120 python $$script > /dev/null || exit 1; \
	done

# Tier-1: the full unit + benchmark-trend suite.
test:
	$(PY) -m pytest -x -q

# Static gates: the project-invariant analyzer (docs/ANALYSIS.md) and
# scoped strict typing. mypy is optional tooling (not baked into the
# runtime image), so its leg degrades to a notice when absent.
check:
	$(PY) -m repro.analysis.check src/repro
	@if python -c "import mypy" 2>/dev/null; then \
		PYTHONPATH=src python -m mypy --config-file mypy.ini; \
	else \
		echo "mypy not installed; skipping typed-module check (CI runs it)"; \
	fi

# Exact-parity sweep of all algorithms against the brute-force oracle.
selfcheck:
	$(PY) -m repro.bench selfcheck

# The perf-PR gate: tier-1 tests, the parity oracle, and three short
# micro-benches that exercise every batched hot path end to end —
# similarity-grouped SMA (cross-checked against the per-query paths)
# and the sharded worker-pool engine.
bench-smoke: test selfcheck
	$(PY) -m repro.bench run --n 4000 --rate 40 --queries 10 --cycles 5
	$(PY) -m repro.bench run --n 4000 --rate 200 --queries 24 --cycles 5 \
		--similarity 0.9 --algorithms tma,sma,sma-grouped
	$(PY) -m repro.bench run --n 4000 --rate 40 --queries 12 --cycles 5 \
		--shards 2 --algorithms tma,sma
	$(PY) -m repro.bench run --n 4000 --rate 40 --queries 12 --cycles 8 \
		--churn

# The serving gate: drive the network front-end end to end (server +
# three socket clients with a bitwise replay check), then capture a
# delivery-latency leg with a deliberately-stalled co-subscriber. CI
# mirrors this on both batch backends under hard timeouts.
serve-smoke:
	PYTHONPATH=src timeout 120 python examples/service_client.py
	PYTHONPATH=src timeout 300 python -m repro.bench run --n 2000 \
		--rate 100 --queries 6 --cycles 10 --algorithms tma --serve

# The multi-node gate: transport + remote-shard suites (loopback
# subprocess hosts, bitwise parity against in-process and pipe-sharded
# twins, failure modes) plus a TCP-sharded bench leg with
# bytes-on-the-wire accounting. CI mirrors this on both batch backends
# under hard timeouts.
cluster-smoke:
	PYTHONPATH=src timeout 360 python -m pytest -q \
		tests/transport tests/cluster \
		tests/integration/test_remote_parity.py \
		tests/integration/test_records_cross_once.py
	PYTHONPATH=src timeout 180 python -m repro.bench run --n 3000 \
		--rate 30 --queries 10 --cycles 5 --shards tcp:2 \
		--algorithms tma,sma

# The benchmark's own gate (perf/README.md): all four workloads at
# smoke scale through the public API, each answer checked bitwise
# against the reference top-k. Exits non-zero when the correctness gate
# fails, so a shard frame-format break shows as a failed tcp_sharded
# run, not only as a unit-test failure.
perf-smoke:
	timeout 300 python3 -m perf.run --seed 1 --smoke

# What a performance claim is made of (docs/PERFORMANCE.md):
# `make perf-pairs BASE=<rev> [WORKLOAD=<name>] [PAIRS=10]` runs the
# benchmark alternately on a worktree of BASE and on this tree and
# prints the `perf.compare` table of the two sets.
perf-pairs:
	python3 tools/perf_pairs.py --base $(BASE) --pairs $(or $(PAIRS),10) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# The observability gate: the obs unit suites (metrics registry,
# tracer, HTTP endpoint, engine integration), the delivery-latency
# instrumentation tests, and the pipe-vs-TCP metric-merge parity
# suite; then the end-to-end loop — a traced monitor served over TCP,
# scraped via HTTP, with every OpCounters field verified to
# round-trip through /metrics. CI mirrors this on both batch backends
# under hard timeouts.
obs-smoke:
	PYTHONPATH=src timeout 360 python -m pytest -q \
		tests/obs tests/service/test_delivery_metrics.py \
		tests/service/test_server_metrics.py \
		tests/parallel/test_metrics_parity.py
	PYTHONPATH=src timeout 120 python examples/metrics_scrape.py

# Capture a machine-readable baseline on the default workload
# (the BENCH_PR1.json format's per-run payload).
bench-json:
	$(PY) -m repro.bench run --json bench_capture.json
