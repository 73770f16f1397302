"""The repository's benchmark (see bench/README.md and BENCHMARK.json).

Everything here is the benchmark's own: it drives engines through
``repro.engines.build_engine`` and the ``KVEngine`` verbs and changes
nothing under ``src/``.
"""
