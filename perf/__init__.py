"""perf — this repository's outside-in benchmark.

One command (``python3 -m perf.run``, see ``BENCHMARK.json`` and
``perf/README.md``) generates every input from a seed, drives the
library only through its public API, checks the answers against a
reference computed here, and prints end-to-end metrics (freshness,
throughput, registration latency, memory, set-up time) or — in a
separate traced pass — per-layer self times and counts.

Nothing in ``src/`` imports this package and this package imports
neither ``repro.bench`` nor ``repro.streams``.
"""
