"""``repro.bench`` — the simulator's own speed, seen from inside.

* ``repro bench profile`` runs one system under the hierarchical
  :class:`repro.engine.profiler.EventLoopProfiler` and can write its
  collapsed flame stacks (see docs/BENCHMARKING.md).
* :func:`repro.bench.schema.validate_bench` checks version-1
  ``BENCH_<n>.json`` documents for ``perfbench/suite.py validate``.

Timed, paired measurement lives in ``perfbench/`` at the repository
root; exact per-layer call counts are pinned by
``tests/test_call_budget.py``.
"""
