"""``repro.lint`` — AST-based checker for the repo's own invariants.

The paper's results are only meaningful because the simulation is
deterministic given a seed, and the storage/service layers added in
PRs 1-3 are only trustworthy because they follow strict crash-safety
and lock-discipline rules.  This package makes those conventions
machine-checkable: a single-walk AST rule engine
(:mod:`repro.lint.engine`), seven repo-specific rules
(:mod:`repro.lint.rules`, ``REP001``-``REP007`` plus the ``REP000``
parse-error channel; ``REP002`` confines every durable commit to
:mod:`repro.reliability.durable`), per-line suppressions, and a
committed baseline (:mod:`repro.lint.baseline`) so legacy findings
never block while new ones always do.  ``--flow`` adds the
whole-program pass (:mod:`repro.lint.flow`): call-graph construction,
lock-order cycle detection (``REP008``) and may-block closure checking
(``REP010``), exportable as SARIF 2.1.0.  ``REP009`` is retired.

Run it as ``python -m repro.lint`` or ``python -m repro lint``.
"""

from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.lint.engine import lint_paths, lint_source, parse_suppressions
from repro.lint.findings import PARSE_ERROR_RULE, Finding, LintRun
from repro.lint.flow import FLOW_RULE_IDS, FlowResult, analyze_project
from repro.lint.rules import ALL_RULES, FLOW_RULES, RULES_BY_ID, Rule

__all__ = [
    "ALL_RULES",
    "FLOW_RULES",
    "FLOW_RULE_IDS",
    "FlowResult",
    "analyze_project",
    "RULES_BY_ID",
    "Rule",
    "Finding",
    "LintRun",
    "PARSE_ERROR_RULE",
    "BaselineError",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]
