"""Static and dynamic correctness checks for the simulator.

Two independent passes (see ``docs/CHECKING.md``):

* :mod:`repro.check.protocol` — validates DDR2 command journals and
  FB-DIMM frame journals against the Table 2 timing constraints;
* :mod:`repro.check.lint` — the static-analysis engine: a plugin rule
  registry running the determinism rules (wall clocks, unseeded
  ``random``, set iteration, float arithmetic on picosecond times) plus
  unit-flow and worker shared-state analyses
  (``docs/STATIC_ANALYSIS.md``).

Config validity is no pass of its own: the :mod:`repro.config`
dataclasses reject a meaningless value when they are built, and
:meth:`~repro.config.SystemConfig.warnings` lists suspicious ones.

Run offline with ``python -m repro.check trace.jsonl`` (plus ``lint`` /
``--self-test``), or at runtime with
``SystemConfig(check_protocol=True)``.  Import each pass from its own
module: this package loads none of them.
"""
