"""Whole-program rule tests: REP008/REP010 on fixture trees, and the
split-commit packages REP002 now judges without the flow pass.

Every REP008/REP010 *bad* package is deliberately clean under the
intraprocedural rules — that blindness is exactly what the flow pass
exists to fix — so each test asserts both halves: no findings without
``flow=True``, the expected finding (with its interprocedural trace)
with it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.lint import ALL_RULES, Finding, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
FLOW = FIXTURES / "flow"


def _lint(package: str, flow: bool) -> List[Finding]:
    run, _ = lint_paths([FLOW / package], ALL_RULES, root=FIXTURES, flow=flow)
    return run.findings


class TestLockOrder:
    def test_old_rules_pass_the_bad_package(self):
        assert _lint("rep008_bad", flow=False) == []

    def test_cycle_is_reported_with_both_edges_in_the_trace(self):
        findings = _lint("rep008_bad", flow=True)
        assert [f.rule for f in findings] == ["REP008"]
        finding = findings[0]
        assert "lock-order cycle" in finding.message
        assert "_lock_a" in finding.message and "_lock_b" in finding.message
        # Both directions of the cycle appear as trace frames, and the
        # transitive edge names the helper call that closes it.
        notes = " ".join(note for _path, _line, note in finding.trace)
        assert "while holding self._lock_a" in notes
        assert "while holding self._lock_b" in notes
        assert "Pair.backward calls Pair._take_a" in notes

    def test_consistent_order_is_clean(self):
        assert _lint("rep008_ok", flow=True) == []

    def test_suppression_at_the_anchor_site_silences_the_cycle(self):
        assert _lint("rep008_suppressed", flow=True) == []


class TestInterproceduralDurability:
    """A commit split across helpers needs no call graph: REP002
    reports every raw ``replace`` where it is called, flow or not."""

    def _rep002(self, package: str, flow: bool) -> List[Finding]:
        findings = _lint(package, flow=flow)
        assert {f.rule for f in findings} <= {"REP002"}
        return findings

    def test_write_hidden_in_helper_is_reported(self):
        for flow in (False, True):
            findings = self._rep002("rep009_bad", flow)
            assert [(f.path, f.line) for f in findings] == [
                ("flow/rep009_bad/publisher.py", 13),
                ("flow/rep009_bad/publisher.py", 22),
            ]
        # commit(): its write lives in write_blob, its publish is raw.
        assert "io.replace()" in findings[0].message
        assert findings[0].trace == ()

    def test_publish_hidden_in_helper_is_reported(self):
        findings = self._rep002("rep009_bad", flow=True)
        # commit_via_helper() is reported where publish_blob renames.
        helper_publish = {f.line: f for f in findings}[22]
        assert "durable seam" in helper_publish.message

    def test_durable_write_and_fsync_in_helper_are_clean(self):
        assert _lint("rep009_ok", flow=False) == []
        assert _lint("rep009_ok", flow=True) == []

    def test_suppression_at_the_raw_call_silences_it(self):
        assert _lint("rep009_suppressed", flow=False) == []
        assert _lint("rep009_suppressed", flow=True) == []


class TestBlockingClosure:
    def test_old_rules_pass_the_bad_package(self):
        assert _lint("rep010_bad", flow=False) == []

    def test_blocking_reached_through_helper_is_reported(self):
        findings = _lint("rep010_bad", flow=True)
        assert [f.rule for f in findings] == ["REP010", "REP010"]
        method, function = findings
        assert "_flush" in method.message and "self._lock" in method.message
        assert any("blocks in time.sleep" in note
                   for _p, _l, note in method.trace)
        # The module-level variant crosses a module boundary.
        assert "pause" in function.message
        assert any(path.endswith("pause.py")
                   for path, _l, _n in function.trace)

    def test_blocking_outside_the_lock_is_clean(self):
        assert _lint("rep010_ok", flow=True) == []

    def test_suppression_at_the_call_site_silences_the_finding(self):
        assert _lint("rep010_suppressed", flow=True) == []


class TestFlowRunPlumbing:
    def test_flow_rules_join_the_run_rule_list(self):
        run, _ = lint_paths(
            [FLOW / "rep008_ok"], ALL_RULES, root=FIXTURES, flow=True
        )
        assert {"REP008", "REP010"} <= set(run.rules)
        assert "REP009" not in run.rules

    def test_flow_findings_are_fingerprinted(self):
        findings = _lint("rep010_bad", flow=True)
        assert findings
        for finding in findings:
            assert finding.fingerprint
            assert finding.content_fingerprint

    def test_graphs_are_exposed_on_the_run(self):
        run, _ = lint_paths(
            [FLOW / "rep008_bad"], ALL_RULES, root=FIXTURES, flow=True
        )
        result = run.flow_result
        assert result is not None
        assert result.callgraph_dot.startswith("digraph callgraph")
        assert result.lockgraph_dot.startswith("digraph lockorder")
        assert "_lock_a" in result.lockgraph_dot

    def test_no_flow_means_no_flow_rules_or_result(self):
        run, _ = lint_paths(
            [FLOW / "rep008_bad"], ALL_RULES, root=FIXTURES, flow=False
        )
        assert run.flow_result is None
        assert not {"REP008", "REP010"} & set(run.rules)
