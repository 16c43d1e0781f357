"""May-block closure analysis (``REP010``).

``REP004`` flags a blocking call (disk, subprocess, ``time.sleep``)
written *textually* inside a ``with lock:`` body.  Hide the sleep in a
helper — ``with self._lock: self._flush()`` — and the intraprocedural
rule is blind.  This analysis computes the *may-block* closure over
the call graph: a function blocks directly when it performs one of the
REP004 operations or a pipe ``recv``, and transitively when any
resolved callee may block.  Calling into that closure while holding a
lock is ``REP010``, with the chain from the call site down to the
actual blocking operation in the trace.

Two shapes are reported:

* a *direct* blocking operation under a lock that REP004's list does
  not cover (today: pipe/queue ``recv``), and
* a call under a lock whose resolved target is in the may-block
  closure (the call itself not being a REP004-covered operation —
  those already fired in pass one, and are not repeated here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding, TraceFrame
from repro.lint.flow.callgraph import CallSite, ProjectIndex
from repro.lint.rules import _BLOCKING_ATTR_NAMES

RULE_ID = "REP010"

#: Terminal attribute names that block but are *not* in REP004's list;
#: a direct occurrence under a lock is reported by REP010 itself.
_EXTRA_BLOCKING_NAMES = {"recv"}


@dataclass(frozen=True)
class _Direct:
    """One directly-blocking operation inside a function."""

    desc: str
    line: int
    rep004_covered: bool


def classify_blocking(chain: Tuple[str, ...]) -> Optional[_Direct]:
    """Blocking classification of one call chain (line filled later)."""
    name = chain[-1]
    if chain == ("time", "sleep"):
        return _Direct("time.sleep", 0, True)
    if chain == ("os", "fsync"):
        return _Direct("os.fsync", 0, True)
    if len(chain) >= 2 and chain[-2] == "subprocess":
        return _Direct(f"subprocess.{name}", 0, True)
    if chain == ("open",):
        return _Direct("open", 0, True)
    if name in _BLOCKING_ATTR_NAMES:
        return _Direct(f".{name}", 0, True)
    if name in _EXTRA_BLOCKING_NAMES:
        return _Direct(f".{name} (pipe/queue receive)", 0, False)
    return None


class BlockingAnalysis:
    """May-block closure plus the ``REP010`` findings built on it."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: qualname → chain of frames from the function's own body to
        #: the nearest direct blocking operation (empty = cannot block).
        self.block_chains: Dict[str, Tuple[TraceFrame, ...]] = {}
        self._compute_closure()

    def _compute_closure(self) -> None:
        directs: Dict[str, _Direct] = {}
        for qualname in sorted(self.index.facts):
            facts = self.index.facts[qualname]
            best: Optional[_Direct] = None
            for call in facts.calls:
                found = classify_blocking(call.chain)
                if found is not None:
                    candidate = _Direct(
                        found.desc, call.line, found.rep004_covered
                    )
                    if best is None or candidate.line < best.line:
                        best = candidate
            if best is not None:
                directs[qualname] = best
                facts_path = facts.info.rel_path
                self.block_chains[qualname] = (
                    (facts_path, best.line, f"blocks in {best.desc}()"),
                )
        # Propagate through call edges to a fixpoint; prefer the
        # shortest chain, ties broken lexicographically, so the result
        # is deterministic and minimal.
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.index.edges):
                facts = self.index.facts[qualname]
                current = self.block_chains.get(qualname)
                for call in facts.calls:
                    for target in call.targets:
                        tail = self.block_chains.get(target)
                        if tail is None:
                            continue
                        frame: TraceFrame = (
                            facts.info.rel_path,
                            call.line,
                            f"{qualname.split(':', 1)[-1]} calls "
                            f"{target.split(':', 1)[-1]}",
                        )
                        candidate = (frame,) + tail
                        if current is None or (
                            len(candidate),
                            candidate,
                        ) < (len(current), current):
                            current = candidate
                            self.block_chains[qualname] = candidate
                            changed = True

    def check(self) -> List[Tuple[Finding, Tuple[int, int]]]:
        """``REP010`` findings over every function's call sites."""
        findings: List[Tuple[Finding, Tuple[int, int]]] = []
        for qualname in sorted(self.index.facts):
            facts = self.index.facts[qualname]
            rel_path = facts.info.rel_path
            for call in facts.calls:
                if not call.held:
                    continue
                holder = call.held[-1]
                direct = classify_blocking(call.chain)
                if direct is not None:
                    if direct.rep004_covered:
                        continue  # REP004 already reported this shape.
                    findings.append(
                        (
                            Finding(
                                path=rel_path,
                                line=call.line,
                                col=call.col,
                                rule=RULE_ID,
                                message=(
                                    f"{direct.desc} blocks while holding "
                                    f"'{holder.display}'; every other "
                                    "thread serializes behind this wait "
                                    "(DESIGN.md §15)"
                                ),
                                trace=(
                                    (
                                        rel_path,
                                        call.line,
                                        f"blocks in {direct.desc}",
                                    ),
                                ),
                            ),
                            call.span,
                        )
                    )
                    continue
                reported = self._call_findings(rel_path, call)
                findings.extend(reported)
        findings.sort(
            key=lambda pair: (pair[0].path, pair[0].line, pair[0].col)
        )
        return findings

    def _call_findings(
        self, rel_path: str, call: CallSite
    ) -> List[Tuple[Finding, Tuple[int, int]]]:
        holder = call.held[-1]
        results: List[Tuple[Finding, Tuple[int, int]]] = []
        for target in call.targets:
            tail = self.block_chains.get(target)
            if tail is None:
                continue
            callee_name = target.split(":", 1)[-1]
            trace: Tuple[TraceFrame, ...] = (
                (
                    rel_path,
                    call.line,
                    f"calls {callee_name} while holding "
                    f"'{holder.display}'",
                ),
            ) + tail
            results.append(
                (
                    Finding(
                        path=rel_path,
                        line=call.line,
                        col=call.col,
                        rule=RULE_ID,
                        message=(
                            f"call into {callee_name} may block "
                            f"({tail[-1][2]}) while holding "
                            f"'{holder.display}'; move the call outside "
                            "the critical section (DESIGN.md §15)"
                        ),
                        trace=trace,
                    ),
                    call.span,
                )
            )
        return results
