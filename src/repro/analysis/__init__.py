"""Static analysis and runtime sanitising for the repo's core invariant.

Everything this repository ships rests on one property: **a fixed seed
produces bit-identical event logs, summaries and CSVs** across every
federation mode.  Until now that invariant was guarded only after the fact,
by bit-identity tests comparing whole result documents.  This package guards
it at the *source*:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.linter` — an AST-based
  **static analyzer** (the ``repro lint`` CLI subcommand) that checks one
  file at a time, with a rule registry, per-rule codes in two families
  (``DET`` determinism, ``UNIT`` unit/dimension discipline), family
  selectors (``--select UNIT``), long-form rationales (``--explain CODE``)
  and one way to silence a finding: an inline ``# detlint: ignore[RULE]``
  on its line, so the verdict is the same from any working directory.
  That the CLI sets every ``ExperimentConfig`` field and offers every
  registered choice is checked by running the parser, in
  ``tests/test_reporting_cli.py``, not by a lint rule.
* :mod:`repro.analysis.sanitizer` — a runtime **simulation sanitizer**
  (``ExperimentConfig(sanitize=True)`` / ``repro run --sanitize``): strictly
  read-only assertions hooked into the discrete-event kernel, the link
  scheduler and the communication fabric — a race-detector analogue for the
  discrete-event engine.  A sanitized run is bit-identical to an unsanitized
  one; the sanitizer only ever *observes* and raises
  :class:`~repro.analysis.sanitizer.SanitizerViolation` on the first broken
  invariant.

The linter rules:

========  =====================================================================
``DET001``  wall-clock / entropy APIs (``time.time``, ``datetime.now``,
            ``time.perf_counter``, ``os.urandom``, ``uuid.uuid4``, ...)
``DET002``  unseeded RNG construction and ambient global-RNG calls
            (``random.Random()``, ``np.random.default_rng()``,
            module-level ``random.*`` / ``np.random.*``)
``DET003``  order-dependent aggregation: iteration or ``sum``/``min``/``max``
            over ``set``/``frozenset`` values, ``sum`` over dict views
``DET004``  mode-string comparisons outside the round-policy registry
``DET005``  mutable default arguments
``UNIT001``  arithmetic/comparisons mixing dimensions inferred from the
             ``_s``/``_bytes``/``_mb``/``_mbytes_per_s``/... suffix
             conventions without an explicit conversion
``UNIT002``  magic unit-conversion constants (``1e6``, ``4e6``, ``20e6``)
             outside :mod:`repro.simnet.units`
``UNIT004``  suffixed names assigned/passed from names of a different (or
             no) dimension without a conversion
========  =====================================================================
"""

from repro.analysis.linter import Finding, LintReport, lint_paths, lint_source
from repro.analysis.rules import (
    Rule,
    all_rules,
    expand_selectors,
    get_rule,
    register_rule,
)
from repro.analysis.sanitizer import SanitizerViolation, SimulationSanitizer

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "SanitizerViolation",
    "SimulationSanitizer",
    "all_rules",
    "expand_selectors",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register_rule",
]
