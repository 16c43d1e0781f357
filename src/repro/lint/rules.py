"""The repo-specific invariant rules behind ``repro lint``.

Each rule guards one invariant this codebase's correctness story
depends on (see DESIGN.md §10 for the catalogue):

========  ==========================================================
REP001    determinism — no unseeded / global RNG
REP002    crash safety — durable commits go through the durable seam
REP003    lock discipline — shared ``self._*`` writes under the lock
REP004    no blocking calls while holding a lock
REP005    no ``==`` / ``!=`` on float literals (distance/threshold code)
REP006    durations and timeouts use a monotonic clock, not ``time.time``
REP007    metrics go through the registry — no bare dict counters
========  ==========================================================

A rule is an ``enter``/``leave`` visitor over the engine's single AST
walk; it reports findings with :meth:`Rule.report` and may keep small
per-function or per-class state on a stack it pushes in ``enter`` and
pops in ``leave``.  Adding a rule is ~40 lines: subclass, set the
class attributes, implement ``enter``, append to :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.lint.engine import LintContext, Scope, attr_chain
from repro.lint.findings import Finding


class Rule:
    """Base class: one invariant, one visitor, a list of findings."""

    rule_id: str = ""
    title: str = ""
    invariant: str = ""
    #: Path components the rule is limited to (empty = every file).
    path_filters: Tuple[str, ...] = ()
    #: Path suffixes of the sanctioned modules the rule never checks.
    exempt_modules: Tuple[str, ...] = ()

    def __init__(self, context: LintContext) -> None:
        self.context = context
        #: ``(finding, (first_line, last_line))`` pairs; the span lets
        #: a suppression comment anywhere in a multi-line statement
        #: silence the finding.
        self.findings: List[Tuple[Finding, Tuple[int, int]]] = []

    @classmethod
    def applies_to(cls, rel_path: str) -> bool:
        """True when this rule runs on ``rel_path``."""
        if rel_path.endswith(cls.exempt_modules):
            return False
        if not cls.path_filters:
            return True
        parts = set(PurePosixPath(rel_path).parts)
        return any(component in parts for component in cls.path_filters)

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", None) or line
        finding = Finding(
            path=self.context.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )
        self.findings.append((finding, (line, end_line)))

    def enter(self, node: ast.AST, scope: Scope) -> None:
        """Called before a node's children are walked."""

    def leave(self, node: ast.AST, scope: Scope) -> None:
        """Called after a node's children were walked."""


# ----------------------------------------------------------------------
# REP001 — determinism: no unseeded / global RNG
# ----------------------------------------------------------------------

#: ``numpy.random`` attributes that are fine: explicit generator
#: construction (seeded or fed a SeedSequence) and the types themselves.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Stdlib ``random`` module functions that draw from the hidden global
#: state — the determinism hazard the paper's fingerprints cannot
#: tolerate.
_GLOBAL_RANDOM_FUNCTIONS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "getrandbits",
    "randbytes",
    "seed",
}


class UnseededRandomRule(Rule):
    """REP001: every random draw must come from an explicitly seeded
    generator — fingerprint decay is only reproducible given a seed."""

    rule_id = "REP001"
    title = "unseeded or global RNG"
    invariant = "determinism: decay is a pure function of the seed"

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if not isinstance(node, ast.Call):
            return
        chain = attr_chain(node.func)
        if len(chain) >= 3 and chain[-3] in ("np", "numpy") and chain[-2] == "random":
            function = chain[-1]
            if function == "default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        node,
                        "np.random.default_rng() without a seed draws "
                        "OS entropy; pass a seed or a SeedSequence",
                    )
            elif function not in _NP_RANDOM_ALLOWED:
                self.report(
                    node,
                    f"np.random.{function}() uses numpy's hidden global "
                    "RNG; draw from an explicitly seeded "
                    "np.random.Generator instead",
                )
        elif len(chain) == 2 and chain[0] == "random":
            function = chain[1]
            if function in _GLOBAL_RANDOM_FUNCTIONS:
                self.report(
                    node,
                    f"random.{function}() uses the interpreter-global "
                    "RNG; use a seeded random.Random(seed) instance",
                )
            elif function == "Random" and not node.args and not node.keywords:
                self.report(
                    node,
                    "random.Random() without a seed draws OS entropy; "
                    "pass an explicit seed",
                )


# ----------------------------------------------------------------------
# REP002 — crash safety: durable commits go through the durable seam
# ----------------------------------------------------------------------

#: A receiver named like a StorageIO (``io``, ``_io``, ``io_seam``,
#: ``storage_io``), which keeps ``str.replace`` and
#: ``dataclasses.replace`` out.
_IO_RECEIVER = re.compile(r"(^|_)io($|_)")

#: Filename fragments that mark a durable artifact whose readers
#: assume the atomic temp-write-fsync-replace pattern.
_DURABLE_FRAGMENTS = ("manifest", "checkpoint", "journal", "fatal")
_TMP_FRAGMENTS = ("tmp", "temp")


def _string_fragments(expr: ast.AST) -> str:
    """Lower-cased concatenation of every identifier and string literal
    inside an expression — a cheap way to ask "does this path mention a
    manifest?" without evaluating it."""
    pieces: List[str] = []
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            pieces.append(sub.value.lower())
        elif isinstance(sub, ast.Name):
            pieces.append(sub.id.lower())
        elif isinstance(sub, ast.Attribute):
            pieces.append(sub.attr.lower())
    return " ".join(pieces)


def _open_mode(node: ast.Call) -> Optional[str]:
    """The string mode of an ``open``-like call, when statically known."""
    mode_expr: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_expr = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_expr = keyword.value
    if mode_expr is None:
        return "r"
    if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str):
        return mode_expr.value
    return None


class DurableSeamRule(Rule):
    """REP002: outside :mod:`repro.reliability.durable` and the fault
    seam, no raw ``replace``/``rename`` on ``os`` or a StorageIO, no
    ``fsync_dir``, and no durable artifact opened for direct write.

    Every commit goes through ``publish``/``create``/``move``/
    ``discard`` or a ``Journal``, whose write-fsync-rename ordering the
    crash harness enumerates op by op, so a hand-rolled commit is a
    finding however well it orders its syncs.
    """

    rule_id = "REP002"
    title = "durable commit outside the durable seam"
    invariant = "crash safety: commits go through repro.reliability.durable (§8)"
    #: The durable-commit primitive and the fault-injection seam
    #: beneath it: the modules allowed raw renames and directory fsyncs.
    exempt_modules = ("reliability/durable.py", "reliability/faults.py")

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if not isinstance(node, ast.Call):
            return
        chain = attr_chain(node.func)
        name = chain[-1]
        receiver = chain[-2] if len(chain) >= 2 else ""
        if name in ("replace", "rename") and (
            receiver == "os" or _IO_RECEIVER.search(receiver)
        ):
            self.report(
                node,
                f"raw {receiver}.{name}() outside the durable seam; commit "
                "through repro.reliability.durable (publish, move)",
            )
        elif name == "fsync_dir":
            self.report(
                node,
                "fsync_dir outside the durable seam; commit through "
                "repro.reliability.durable (create, publish, discard)",
            )
        elif name == "open" and len(chain) == 1:
            mode = _open_mode(node)
            fragments = _string_fragments(node.args[0]) if node.args else ""
            if (
                mode is not None
                and any(c in mode for c in "wax")
                and any(f in fragments for f in _DURABLE_FRAGMENTS)
                and not any(f in fragments for f in _TMP_FRAGMENTS)
            ):
                self.report(
                    node,
                    "durable artifact opened for in-place write; commit it "
                    "with repro.reliability.durable.publish",
                )


# ----------------------------------------------------------------------
# REP003 — lock discipline in service/ and reliability/
# ----------------------------------------------------------------------

_LOCK_FACTORY_NAMES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
_EXEMPT_METHODS = {"__init__", "__new__", "__post_init__"}


def _class_lock_attrs(class_node: ast.ClassDef) -> Set[str]:
    """Names of ``self.<attr>`` assigned a ``threading`` lock anywhere
    in the class body."""
    lock_attrs: Set[str] = set()
    for sub in ast.walk(class_node):
        if not isinstance(sub, ast.Assign):
            continue
        value = sub.value
        if not isinstance(value, ast.Call):
            continue
        chain = attr_chain(value.func)
        if chain[-1] not in _LOCK_FACTORY_NAMES:
            continue
        for target in sub.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                lock_attrs.add(target.attr)
    return lock_attrs


class LockDisciplineRule(Rule):
    """REP003: in a class that owns a lock, private shared state
    (``self._*``) is only written while holding that lock."""

    rule_id = "REP003"
    title = "shared attribute written outside the owning lock"
    invariant = "lock discipline in the concurrent service layers (PR 3)"
    path_filters = ("service", "reliability")

    def __init__(self, context: LintContext) -> None:
        super().__init__(context)
        self._lock_attrs: List[Set[str]] = []

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, ast.ClassDef):
            self._lock_attrs.append(_class_lock_attrs(node))
            return
        if not self._lock_attrs or not self._lock_attrs[-1]:
            return
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            return
        function = scope.current_function
        if function is None or getattr(function, "name", "") in _EXEMPT_METHODS:
            return
        lock_attrs = self._lock_attrs[-1]
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if not (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    continue
                attr = leaf.attr
                if not attr.startswith("_") or attr in lock_attrs:
                    continue
                if not scope.holds_self_lock(lock_attrs):
                    locks = ", ".join(sorted(lock_attrs))
                    self.report(
                        node,
                        f"self.{attr} is written outside 'with "
                        f"self.{locks}'; this class shares state across "
                        "threads, so unguarded writes race",
                    )

    def leave(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, ast.ClassDef):
            self._lock_attrs.pop()


# ----------------------------------------------------------------------
# REP004 — no blocking calls while holding a lock
# ----------------------------------------------------------------------

#: Attribute/function names that block on IO or time when called.
_BLOCKING_ATTR_NAMES = {
    "write_bytes",
    "append_bytes",
    "read_bytes",
    "write_text",
    "read_text",
    "fsync",
    "fsync_dir",
}


class BlockingUnderLockRule(Rule):
    """REP004: a held lock serializes every other thread — never pay
    for disk, subprocesses, or sleeps while holding one."""

    rule_id = "REP004"
    title = "blocking call while holding a lock"
    invariant = "lock hold times stay bounded (service latency, PR 1-3)"

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if not isinstance(node, ast.Call):
            return
        held = scope.held_locks()
        if not held:
            return
        chain = attr_chain(node.func)
        name = chain[-1]
        blocking: Optional[str] = None
        if chain == ("time", "sleep"):
            blocking = "time.sleep"
        elif chain == ("os", "fsync"):
            blocking = "os.fsync"
        elif len(chain) >= 2 and chain[-2] == "subprocess":
            blocking = f"subprocess.{name}"
        elif chain == ("open",):
            blocking = "open"
        elif name in _BLOCKING_ATTR_NAMES:
            blocking = f".{name}"
        if blocking is not None:
            holder = held[-1].name
            self.report(
                node,
                f"{blocking}() is called while holding '{holder}'; move "
                "the blocking work outside the critical section",
            )


# ----------------------------------------------------------------------
# REP005 — float equality in distance/threshold code
# ----------------------------------------------------------------------


class FloatEqualityRule(Rule):
    """REP005: ``==`` / ``!=`` against a float literal is fragile in
    code that computes distances and compares thresholds."""

    rule_id = "REP005"
    title = "exact equality against a float literal"
    invariant = "distance/threshold comparisons tolerate rounding (§5)"

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            for operand in pair:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    self.report(
                        node,
                        f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"against float literal {operand.value!r}; use "
                        "math.isclose(), an explicit tolerance, or an "
                        "ordering test for non-negative sentinels",
                    )
                    break


# ----------------------------------------------------------------------
# REP006 — wall clock used where a monotonic clock is required
# ----------------------------------------------------------------------


class WallClockRule(Rule):
    """REP006: ``time.time()`` jumps with NTP/DST; durations, timeouts
    and backoff schedules must use ``time.monotonic()`` (or
    ``time.perf_counter()`` for fine-grained measurement).  The only
    sanctioned caller is :mod:`repro.obs.clock`, the seam real
    timestamps (the run ledger) are read through."""

    rule_id = "REP006"
    title = "time.time() used for durations/timeouts"
    invariant = "timeouts and backoff survive wall-clock adjustments"
    #: The one module allowed to read the wall clock: the seam real
    #: timestamps (the run ledger's) go through.
    exempt_modules = ("obs/clock.py",)

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if not isinstance(node, ast.Call):
            return
        if attr_chain(node.func) == ("time", "time"):
            self.report(
                node,
                "time.time() is a wall clock and jumps under NTP/DST; "
                "use time.monotonic() for timeouts/backoff, "
                "time.perf_counter() for latency measurement, or "
                "repro.obs.clock.wall_time() when a real timestamp is "
                "intended",
            )


# ----------------------------------------------------------------------
# REP007 — metrics go through the registry, not bare dict counters
# ----------------------------------------------------------------------

def _is_get_default_call(expr: ast.AST) -> bool:
    """True for ``<mapping>.get(key, <default>)`` expressions."""
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "get"
        and len(expr.args) == 2
    )


class BareCounterRule(Rule):
    """REP007: counters in the service layers must go through
    ``ServiceMetrics`` / ``MetricsRegistry`` so they reach the
    exporters; a bare dict counter is invisible to every dashboard."""

    rule_id = "REP007"
    title = "bare dict counter bypasses the metrics registry"
    invariant = "every counter is exported (observability, DESIGN.md §11)"
    path_filters = ("service", "reliability")
    #: The sanctioned counter implementation itself: the one place a
    #: raw dict-backed counter is the point, not a bypass.
    exempt_modules = ("service/metrics.py",)

    def enter(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain[-1] == "Counter" and (
                len(chain) == 1 or chain[-2] == "collections"
            ):
                self.report(
                    node,
                    "collections.Counter is a bare in-process counter; "
                    "count through ServiceMetrics.count() or a "
                    "MetricsRegistry counter so the value reaches the "
                    "exporters",
                )
            return
        if isinstance(node, ast.AugAssign):
            if isinstance(node.op, ast.Add) and isinstance(
                node.target, ast.Subscript
            ):
                self.report(
                    node,
                    "dict-subscript '+=' builds a bare counter; use "
                    "ServiceMetrics.count() / a MetricsRegistry counter "
                    "so the value reaches the exporters",
                )
            return
        if isinstance(node, ast.Assign):
            value = node.value
            if not (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Add)
            ):
                return
            if any(
                isinstance(target, ast.Subscript) for target in node.targets
            ) and (
                _is_get_default_call(value.left)
                or _is_get_default_call(value.right)
            ):
                self.report(
                    node,
                    "'d[k] = d.get(k, 0) + n' builds a bare counter; use "
                    "ServiceMetrics.count() / a MetricsRegistry counter "
                    "so the value reaches the exporters",
                )


# ----------------------------------------------------------------------
# REP008 and REP010 — whole-program rules (repro.lint.flow)
# ----------------------------------------------------------------------
#
# These are *descriptors*, not AST visitors: the findings come from the
# interprocedural analyses in :mod:`repro.lint.flow`, which run as a
# second pass over the whole project (``repro lint --flow``).  They
# subclass :class:`Rule` only so the catalogue (``--list-rules``),
# SARIF metadata, and documentation tooling can treat every rule id
# uniformly; their ``enter``/``leave`` are the inherited no-ops.


class LockOrderRule(Rule):
    """REP008: the project-wide lock-order graph (which lock-like
    objects are acquired while others are held, including transitively
    through calls) must stay acyclic — a cycle is a potential deadlock."""

    rule_id = "REP008"
    title = "lock-order cycle across the call graph"
    invariant = "deadlock freedom: one global lock acquisition order"


class BlockingClosureRule(Rule):
    """REP010: a function that transitively reaches ``time.sleep``,
    ``subprocess``, pipe ``recv``, or seam IO may block; calling one
    while holding a lock stalls every other thread just like a direct
    blocking call (REP004) would."""

    rule_id = "REP010"
    title = "may-block call closure entered while holding a lock"
    invariant = "bounded critical sections, interprocedurally (PR 1-3)"


#: Registry, in rule-id order; the engine runs them in one walk.
ALL_RULES: Tuple[Type[Rule], ...] = (
    UnseededRandomRule,
    DurableSeamRule,
    LockDisciplineRule,
    BlockingUnderLockRule,
    FloatEqualityRule,
    WallClockRule,
    BareCounterRule,
)

#: Whole-program rule descriptors, reported by ``repro lint --flow``.
FLOW_RULES: Tuple[Type[Rule], ...] = (
    LockOrderRule,
    BlockingClosureRule,
)

#: rule id → class, for ``--list-rules`` and documentation tooling.
RULES_BY_ID: Dict[str, Type[Rule]] = {
    rule.rule_id: rule for rule in ALL_RULES + FLOW_RULES
}
