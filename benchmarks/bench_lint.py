"""Flow-analysis cost guard — whole-program lint must stay PR-cheap.

``repro lint --flow`` gates every PR in CI, so the whole-program pass
(call-graph construction over every module, lock-graph and may-block
fixpoints) has to stay far below interactive pain: this
benchmark runs the *real* analysis over the repository's own ``src/``
tree and asserts the minimum-of-trials wall time fits a fixed budget.
The budget is deliberately loose against local timings (~6x) so it
only trips on complexity regressions — an accidentally quadratic
resolution step, an unbounded dataflow — not scheduler noise.

Artifacts: ``bench_lint.json`` in the results directory with per-trial
timings and analysis volume (files, functions, findings).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.reporting import results_dir
from repro.lint import ALL_RULES, lint_paths

TRIALS = 3

#: Hard wall-clock ceiling for one full --flow pass over src/ on CI.
BUDGET_S = 10.0

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_flow_analysis_fits_the_ci_budget():
    """One full ``--flow`` pass over ``src/repro`` within BUDGET_S."""
    timings = []
    run = None
    for _trial in range(TRIALS):
        started = time.perf_counter()
        run, _sources = lint_paths([SRC], ALL_RULES, root=REPO_ROOT, flow=True)
        timings.append(time.perf_counter() - started)

    assert run is not None
    assert run.files_checked > 50, "src tree unexpectedly small"
    result = run.flow_result
    assert result is not None
    assert result.functions_analyzed > 500, "call graph unexpectedly small"

    best = min(timings)
    assert best <= BUDGET_S, (
        f"flow analysis too slow to gate PRs: min {best:.2f}s over "
        f"{TRIALS} trials exceeds the {BUDGET_S:.0f}s budget "
        f"({run.files_checked} files, {result.functions_analyzed} functions)"
    )

    report = {
        "budget_s": BUDGET_S,
        "trials": TRIALS,
        "timings_s": [round(t, 4) for t in timings],
        "min_s": round(best, 4),
        "files_checked": run.files_checked,
        "functions_analyzed": result.functions_analyzed,
        "findings": len(run.findings),
    }
    path = results_dir() / "bench_lint.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"bench_lint: min {best:.2f}s / budget {BUDGET_S:.0f}s "
        f"({run.files_checked} files, {result.functions_analyzed} functions)"
    )
