"""Static and dynamic correctness checks for the simulator.

Three independent passes (see ``docs/CHECKING.md``):

* :mod:`repro.check.protocol` — validates DDR2 command journals and
  FB-DIMM frame journals against the Table 2 timing constraints;
* :mod:`repro.check.lint` — the static-analysis engine: a plugin rule
  registry running the determinism rules (wall clocks, unseeded
  ``random``, set iteration, float arithmetic on picosecond times) plus
  unit-flow and worker shared-state analyses
  (``docs/STATIC_ANALYSIS.md``);
* :mod:`repro.check.config_audit` — cross-field consistency checks on
  :class:`~repro.config.SystemConfig` with actionable messages.

Run offline with ``python -m repro.check trace.jsonl`` (plus ``lint`` /
``--audit-configs`` / ``--self-test``), or at runtime with
``SystemConfig(check_protocol=True)``.  Import each pass from its own
module: this package loads none of them.
"""
