# One-command gates for this reproduction. PYTHONPATH-based so no
# install step is required (the container has no network).

PY := PYTHONPATH=src python

.PHONY: test examples serve-smoke check cluster-smoke obs-smoke perf-smoke perf-pairs

# Docs-facing smoke: every example must run end to end (CI mirrors
# this on both batch backends with a hard per-script timeout).
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src timeout 120 python $$script > /dev/null || exit 1; \
	done

# Tier-1: the full unit + benchmark-trend suite. Exact parity of every
# algorithm against the brute-force oracle is part of it
# (tests/integration/test_batched_parity.py, test_grouped_parity.py).
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

# The serving gate: drive the network front-end end to end (server +
# three socket clients with a bitwise replay check), then the
# benchmark's served-monitor workload at smoke scale (a MonitorServer
# child fed and subscribed over two sockets, every delivered answer
# checked). CI mirrors this on both batch backends under hard timeouts.
serve-smoke:
	PYTHONPATH=src timeout 120 python examples/service_client.py
	timeout 300 python3 -m perf.run --seed 1 --smoke --workload serve_fanout

# The multi-node gate: transport + remote-shard suites (loopback
# subprocess hosts, bitwise parity against in-process and pipe-sharded
# twins, failure modes, bytes-on-the-wire accounting on both
# transports). `make perf-smoke` adds the two-host tcp_sharded
# workload. CI mirrors this on both batch backends under hard timeouts.
cluster-smoke:
	PYTHONPATH=src timeout 360 python -m pytest -q \
		tests/transport tests/cluster \
		tests/integration/test_remote_parity.py \
		tests/integration/test_records_cross_once.py

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
