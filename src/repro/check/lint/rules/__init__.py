"""Built-in lint rules.  Importing this package registers every rule.

Rule families (see ``docs/STATIC_ANALYSIS.md`` for the catalogue):

* :mod:`~repro.check.lint.rules.determinism` — the four PR-1 rules
  (``wall-clock``, ``unseeded-random``, ``set-iteration``, ``float-time``);
* :mod:`~repro.check.lint.rules.unitflow` — ``unit-mix``, ``unit-return``;
* :mod:`~repro.check.lint.rules.sharedstate` — ``worker-shared-state``;
* :mod:`~repro.check.lint.rules.counterdrift` — ``stat-no-increment``;
* :mod:`~repro.check.lint.rules.typing_rules` — ``untyped-def``.
"""

from repro.check.lint.rules import (  # noqa: F401  (registration imports)
    counterdrift,
    determinism,
    sharedstate,
    typing_rules,
    unitflow,
)

__all__ = [
    "counterdrift",
    "determinism",
    "sharedstate",
    "typing_rules",
    "unitflow",
]
