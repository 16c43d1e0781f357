"""Command line for the invariant checker.

Two equivalent entry points::

    python -m repro.lint [paths ...]    # standalone module
    python -m repro lint [paths ...]    # subcommand of the main CLI

Exit codes follow the compiler convention the CI job keys on:

* ``0`` — clean (every finding, if any, is baselined);
* ``1`` — at least one non-baselined finding (including parse errors);
* ``2`` — usage or environment error (bad path, unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.lint.engine import lint_paths
from repro.lint.findings import LintRun
from repro.lint.rules import ALL_RULES, RULES_BY_ID

#: Default target when no path is given and the file exists.
DEFAULT_TARGET = "src/repro"

#: Default committed baseline file name (repo root).
DEFAULT_BASELINE = "lint-baseline.json"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings "
        "(adds new ones, expires fixed ones) and exit 0",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (any --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the whole-program analyses (REP008, REP010): "
        "call-graph, lock-order, interprocedural blocking",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write the findings as a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--graph-dir",
        default=None,
        metavar="DIR",
        help="write callgraph.dot and lockgraph.dot to DIR (implies --flow)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Standalone ``python -m repro.lint`` parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based checker for the repo's determinism, "
        "crash-safety, and lock-discipline invariants.",
    )
    configure_parser(parser)
    return parser


def _print_rules() -> None:
    for rule_id in sorted(RULES_BY_ID):
        rule = RULES_BY_ID[rule_id]
        scope = ", ".join(rule.path_filters) if rule.path_filters else "all files"
        if rule.exempt_modules:
            scope += "; exempt: " + ", ".join(rule.exempt_modules)
        print(f"{rule_id}  {rule.title}  [{scope}]")
        print(f"        invariant: {rule.invariant}")


def _render_human(run: LintRun) -> str:
    lines = [finding.render() for finding in run.findings]
    for fingerprint in run.expired:
        lines.append(
            f"baseline entry {fingerprint} no longer matches any finding; "
            "run --update-baseline to expire it"
        )
    new = len(run.new_findings)
    baselined = len(run.findings) - new
    lines.append(
        f"{run.files_checked} file(s) checked: {new} finding(s)"
        + (f", {baselined} baselined" if baselined else "")
        + (f", {len(run.expired)} expired baseline entr(ies)" if run.expired else "")
    )
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint invocation from parsed options."""
    if args.list_rules:
        _print_rules()
        return 0
    raw_paths = args.paths or [DEFAULT_TARGET]
    paths: List[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.exists():
            print(f"lint: no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    flow = bool(args.flow or args.graph_dir)
    run, _sources = lint_paths(paths, ALL_RULES, flow=flow)

    if args.graph_dir and run.flow_result is not None:
        graph_dir = Path(args.graph_dir)
        graph_dir.mkdir(parents=True, exist_ok=True)
        result = run.flow_result
        (graph_dir / "callgraph.dot").write_text(
            result.callgraph_dot, encoding="utf-8"  # type: ignore[attr-defined]
        )
        (graph_dir / "lockgraph.dot").write_text(
            result.lockgraph_dot, encoding="utf-8"  # type: ignore[attr-defined]
        )

    baseline_path: Optional[Path] = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE).exists() or args.update_baseline:
            baseline_path = Path(DEFAULT_BASELINE)

    if args.update_baseline:
        if baseline_path is None:
            print(
                "lint: --update-baseline conflicts with --no-baseline",
                file=sys.stderr,
            )
            return 2
        save_baseline(baseline_path, run.findings)
        print(
            f"baseline {baseline_path} updated with "
            f"{len(run.findings)} finding(s)"
        )
        return 0

    if baseline_path is not None and baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as error:
            print(f"lint: {error}", file=sys.stderr)
            return 2
        run.findings, run.expired = apply_baseline(run.findings, baseline)
    elif baseline_path is not None and args.baseline is not None:
        print(f"lint: no such baseline: {baseline_path}", file=sys.stderr)
        return 2

    report = json.dumps(run.to_json(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    if args.sarif:
        from repro.lint.flow.sarif import to_sarif

        sarif_doc = json.dumps(to_sarif(run), indent=2, sort_keys=True)
        Path(args.sarif).write_text(sarif_doc + "\n", encoding="utf-8")
    if args.format == "json":
        print(report)
    else:
        print(_render_human(run))
    return run.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.lint`` entry point."""
    args = build_parser().parse_args(argv)
    return run_lint(args)
