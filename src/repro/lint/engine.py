"""The AST walk that powers ``repro lint``.

One linter invocation parses each file once and drives a single
depth-first, source-ordered walk over its AST.  The engine — not the
rules — tracks the structural context every repo invariant cares
about:

* the enclosing function stack;
* which ``with`` blocks currently hold a lock-like object (an
  attribute or name whose identifier looks like a ``Lock`` /
  ``Condition``), and whether that object hangs off ``self``.

Rules are tiny visitors (:class:`~repro.lint.rules.Rule` subclasses)
that receive ``enter``/``leave`` events plus the shared
:class:`Scope`; adding a rule means writing ~40 lines and registering
it.  Per-line suppressions use the comment form::

    something_noisy()  # repro-lint: disable=REP004 -- reason why

and apply to every physical line the suppressed statement spans.
Files that fail ``ast.parse`` yield a :data:`~repro.lint.findings.PARSE_ERROR_RULE`
finding instead of crashing the run.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import (
    Finding,
    LintRun,
    fingerprint_findings,
    parse_error_finding,
)

#: Identifier fragments that mark an object as lock-like.  Condition
#: variables wrap a lock, so holding one protects shared state too.
_LOCK_FRAGMENTS = ("lock", "mutex")
_CONDITION_FRAGMENTS = ("cond", "condition", "not_empty", "not_full")

#: ``# repro-lint: disable=REP001,REP004 -- optional reason``
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?|all)\s*(?:--.*)?$"
)

#: Suppression value meaning "every rule on this line".
SUPPRESS_ALL = "all"


def attr_chain(expr: ast.AST) -> Tuple[str, ...]:
    """Dotted-name chain of an expression, best effort.

    ``np.random.default_rng`` → ``("np", "random", "default_rng")``;
    anything that is not a pure ``Name``/``Attribute`` chain (a call
    result, a subscript) contributes a ``"?"`` placeholder head.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    return tuple(reversed(parts))


class LockEntry:
    """One lock-like object currently held by an enclosing ``with``."""

    __slots__ = ("name", "is_self", "is_condition")

    def __init__(self, name: str, is_self: bool, is_condition: bool) -> None:
        self.name = name
        self.is_self = is_self
        self.is_condition = is_condition


def _classify_lockish(expr: ast.AST) -> Optional[LockEntry]:
    """A :class:`LockEntry` when ``expr`` looks like a held lock."""
    if isinstance(expr, ast.Attribute):
        name, is_self = expr.attr, (
            isinstance(expr.value, ast.Name) and expr.value.id == "self"
        )
    elif isinstance(expr, ast.Name):
        name, is_self = expr.id, False
    else:
        return None
    lowered = name.lower()
    if any(fragment in lowered for fragment in _LOCK_FRAGMENTS):
        return LockEntry(name, is_self, is_condition=False)
    if any(fragment in lowered for fragment in _CONDITION_FRAGMENTS):
        return LockEntry(name, is_self, is_condition=True)
    return None


class Scope:
    """Structural context the engine maintains during the walk."""

    def __init__(self) -> None:
        self.func_stack: List[ast.AST] = []
        self.locks: List[LockEntry] = []

    @property
    def current_function(self) -> Optional[ast.AST]:
        """Innermost enclosing function, if any."""
        return self.func_stack[-1] if self.func_stack else None

    def held_locks(self) -> List[LockEntry]:
        """Locks (and conditions) held at the current node."""
        return list(self.locks)

    def holds_self_lock(self, names: Iterable[str]) -> bool:
        """True when any held lock is ``self.<name>`` for a given name."""
        wanted = set(names)
        return any(
            entry.is_self and entry.name in wanted for entry in self.locks
        )


class LintContext:
    """Per-file state rules may consult while visiting."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → rule ids suppressed on that line.

    Comments are found with :mod:`tokenize` so the marker inside a
    string literal is never honoured.  ``disable=all`` stores the
    :data:`SUPPRESS_ALL` sentinel.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if not match:
                continue
            value = match.group(1).strip()
            line = token.start[0]
            if value.lower() == SUPPRESS_ALL:
                suppressions.setdefault(line, set()).add(SUPPRESS_ALL)
            else:
                rules = {
                    part.strip().upper()
                    for part in value.split(",")
                    if part.strip()
                }
                suppressions.setdefault(line, set()).update(rules)
    except tokenize.TokenizeError:
        # A file that tokenizes badly will also fail ast.parse and be
        # reported as a parse-error finding; suppressions are moot.
        pass
    return suppressions


class _Walker:
    """Single source-ordered DFS dispatching enter/leave to every rule."""

    def __init__(self, rules: Sequence["object"]) -> None:
        self._rules = rules
        self.scope = Scope()

    def walk(self, node: ast.AST) -> None:
        pushed_func = False
        pushed_locks = 0
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.scope.func_stack.append(node)
            pushed_func = True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                entry = _classify_lockish(item.context_expr)
                if entry is not None:
                    self.scope.locks.append(entry)
                    pushed_locks += 1
        for rule in self._rules:
            rule.enter(node, self.scope)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        for rule in self._rules:
            rule.leave(node, self.scope)
        if pushed_func:
            self.scope.func_stack.pop()
        for _ in range(pushed_locks):
            self.scope.locks.pop()


def _is_suppressed(
    finding: Finding,
    span: Tuple[int, int],
    suppressions: Dict[int, Set[str]],
) -> bool:
    """True when any line the finding's statement spans disables it."""
    first, last = span
    for line in range(first, last + 1):
        rules = suppressions.get(line)
        if rules and (SUPPRESS_ALL in rules or finding.rule in rules):
            return True
    return False


def lint_source(
    source: str,
    rel_path: str,
    rule_classes: Sequence[Type],
    respect_path_filters: bool = True,
) -> List[Finding]:
    """Lint one already-read source blob; the engine's core entry.

    Returns the file's findings (suppressions applied, fingerprints
    not yet assigned).  A syntax error yields exactly one
    parse-error finding.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            parse_error_finding(
                rel_path, error.lineno, error.offset, error.msg or "syntax error"
            )
        ]
    except ValueError as error:  # e.g. null bytes in source
        return [parse_error_finding(rel_path, 1, 1, str(error))]
    context = LintContext(rel_path, source, tree)
    rules = [
        rule_class(context)
        for rule_class in rule_classes
        if not respect_path_filters or rule_class.applies_to(rel_path)
    ]
    if not rules:
        return []
    _Walker(rules).walk(tree)
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for rule in rules:
        for finding, span in rule.findings:
            if not _is_suppressed(finding, span, suppressions):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            collected.update(path.rglob("*.py"))
        else:
            collected.add(path)
    return sorted(collected)


def relative_path(path: Path, root: Optional[Path] = None) -> str:
    """Repo-relative POSIX path when possible, else as given."""
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    rule_classes: Sequence[Type],
    root: Optional[Path] = None,
    respect_path_filters: bool = True,
    flow: bool = False,
) -> Tuple[LintRun, Dict[str, List[str]]]:
    """Lint every Python file under ``paths``.

    Returns the run plus a map of path → source lines, which the
    caller feeds to :func:`~repro.lint.findings.fingerprint_findings`
    after baseline matching.

    With ``flow=True`` a second, whole-program pass runs over every
    file read in pass one (:func:`repro.lint.flow.analyze_project`):
    its ``REP008``/``REP010`` findings honour the same per-line
    suppression comments, join the ordinary fingerprint/baseline
    pipeline, and the resulting graphs are exposed on
    ``run.flow_result`` for ``--graph-dir``.
    """
    run = LintRun(rules=[rule_class.rule_id for rule_class in rule_classes])
    source_lines: Dict[str, List[str]] = {}
    sources: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        rel = relative_path(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            run.findings.append(parse_error_finding(rel, 1, 1, str(error)))
            run.files_checked += 1
            continue
        source_lines[rel] = source.splitlines()
        sources[rel] = source
        run.findings.extend(
            lint_source(
                source,
                rel,
                rule_classes,
                respect_path_filters=respect_path_filters,
            )
        )
        run.files_checked += 1
    if flow:
        from repro.lint.flow import FLOW_RULE_IDS, analyze_project

        result = analyze_project(sources)
        run.flow_result = result
        suppression_cache: Dict[str, Dict[int, Set[str]]] = {}

        def suppressions_for(path: str) -> Dict[int, Set[str]]:
            cached = suppression_cache.get(path)
            if cached is None:
                cached = parse_suppressions(sources.get(path, ""))
                suppression_cache[path] = cached
            return cached

        for finding, span in result.findings:
            if _is_suppressed(finding, span, suppressions_for(finding.path)):
                continue
            # An interprocedural finding is also suppressed when any
            # frame of its trace is: silencing the *cause* site (the
            # known-blocking helper) silences every report it would
            # fan out into.
            if any(
                _is_suppressed(
                    finding, (line, line), suppressions_for(path)
                )
                for path, line, _note in finding.trace
            ):
                continue
            run.findings.append(finding)
        run.rules.extend(FLOW_RULE_IDS)
        run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    run.findings = fingerprint_findings(run.findings, source_lines)
    return run, source_lines
