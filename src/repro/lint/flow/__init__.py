"""Whole-program flow analyses layered on the per-file rule engine.

The intraprocedural rules (``REP001``-``REP007``) see one file at a
time; this package builds the project-wide picture they cannot: a call
graph (:mod:`~repro.lint.flow.callgraph`) and two analyses on top of
it —

* :mod:`~repro.lint.flow.locks` — lock-order cycles (``REP008``),
* :mod:`~repro.lint.flow.blocking` — may-block closure entered while
  holding a lock (``REP010``).

Crash safety needs no whole-program pass: ``REP002`` confines every
raw rename and directory fsync to :mod:`repro.reliability.durable`, so
there is no hand-rolled commit to follow across calls.  ``REP009`` is
retired; its id is not reused.

:func:`analyze_project` is the engine's entry point: it takes the raw
sources pass one already read, runs both analyses, and returns
findings paired with suppression spans plus the two graphs in DOT form
for ``--graph-dir``.  Findings then flow through the ordinary
suppression, fingerprint, and baseline machinery unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.blocking import BlockingAnalysis
from repro.lint.flow.callgraph import ProjectIndex
from repro.lint.flow.locks import check_lock_order, lock_graph_dot

FLOW_RULE_IDS = ("REP008", "REP010")


@dataclass
class FlowResult:
    """Everything one whole-program analysis pass produced."""

    #: (finding, statement span) pairs — the span feeds the same
    #: per-line suppression matching the per-file rules use.
    findings: List[Tuple[Finding, Tuple[int, int]]] = field(
        default_factory=list
    )
    callgraph_dot: str = ""
    lockgraph_dot: str = ""
    functions_analyzed: int = 0


def analyze_project(sources: Dict[str, str]) -> FlowResult:
    """Run every whole-program analysis over ``sources``.

    ``sources`` maps repo-relative POSIX paths to file contents;
    unparseable files are skipped here (pass one already reported them
    as ``REP000``).
    """
    index = ProjectIndex.build(sources)
    findings: List[Tuple[Finding, Tuple[int, int]]] = []
    findings.extend(check_lock_order(index))
    findings.extend(BlockingAnalysis(index).check())
    findings.sort(
        key=lambda pair: (
            pair[0].path,
            pair[0].line,
            pair[0].col,
            pair[0].rule,
        )
    )
    return FlowResult(
        findings=findings,
        callgraph_dot=index.to_dot(),
        lockgraph_dot=lock_graph_dot(index),
        functions_analyzed=len(index.functions),
    )


__all__ = [
    "FLOW_RULE_IDS",
    "FlowResult",
    "ProjectIndex",
    "analyze_project",
]
