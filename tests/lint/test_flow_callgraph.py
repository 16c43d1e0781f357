"""Call-graph construction: resolution rules, determinism, and
fingerprint stability under reformatting.

The whole-program pass gates CI, so two properties are load-bearing:
building the index twice from the same sources must give byte-identical
graphs and findings (no hash-order leaks), and a pure reformat —
inserted blank lines and comments — must move *line numbers* only,
never the graph shape or the content-addressed fingerprints the
baseline matches on.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.findings import fingerprint_findings
from repro.lint.flow import analyze_project
from repro.lint.flow.callgraph import ProjectIndex, module_name_for


def _dedent(files: Dict[str, str]) -> Dict[str, str]:
    return {name: textwrap.dedent(text) for name, text in files.items()}


class TestModuleNames:
    def test_src_prefix_and_init_are_stripped(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
        assert module_name_for("repro/service/store.py") == "repro.service.store"
        assert module_name_for("caller.py") == "caller"


class TestResolution:
    SOURCES = _dedent(
        {
            "pkg/__init__.py": "",
            "pkg/alpha.py": """\
                class Widget:
                    def top(self):
                        self.helper()
                        free()

                    def helper(self):
                        pass


                def free():
                    pass
                """,
            "pkg/beta.py": """\
                from pkg.alpha import free


                def entry():
                    free()
                """,
        }
    )

    def test_self_method_and_module_function_resolve(self):
        index = ProjectIndex.build(self.SOURCES)
        edges = index.edges["pkg.alpha:Widget.top"]
        assert "pkg.alpha:Widget.helper" in edges
        assert "pkg.alpha:free" in edges

    def test_imported_symbol_resolves_to_defining_module(self):
        index = ProjectIndex.build(self.SOURCES)
        assert index.edges["pkg.beta:entry"] == ["pkg.alpha:free"]

    def test_common_method_names_are_not_heuristically_linked(self):
        sources = _dedent(
            {
                "one.py": """\
                    class Box:
                        def get(self):
                            pass
                    """,
                "two.py": """\
                    def probe(thing):
                        thing.get()
                    """,
            }
        )
        index = ProjectIndex.build(sources)
        # `get` is on the deny list: one project method bearing the
        # name is not enough to link an opaque receiver to it.
        assert index.edges.get("two:probe", []) == []


#: Two modules that produce two REP010 findings between them — one
#: through seam IO, one through a sleep — enough findings for the
#: stability properties to bite.
BASE_SOURCES = _dedent(
    {
        "helper.py": """\
            import time


            def write_blob(io, tmp, data):
                io.write_bytes(tmp, data, sync=False)


            def nap():
                time.sleep(0.5)
            """,
        "caller.py": """\
            import threading

            from helper import nap, write_blob


            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def commit(self, io, tmp, data):
                    with self._lock:
                        write_blob(io, tmp, data)

                def poke(self):
                    with self._lock:
                        nap()
            """,
    }
)


def _graph_and_fingerprints(
    files: Dict[str, str],
) -> Tuple[str, str, List[Tuple[str, str, str]]]:
    result = analyze_project(files)
    findings = [pair[0] for pair in result.findings]
    lines = {path: text.splitlines() for path, text in files.items()}
    stamped = fingerprint_findings(findings, lines)
    return (
        result.callgraph_dot,
        result.lockgraph_dot,
        sorted(
            (f.rule, f.fingerprint, f.content_fingerprint) for f in stamped
        ),
    )


def _insertions(files: Dict[str, str]):
    """Strategy: per file, a few (position, filler-line) insertions."""

    def per_file(text: str):
        n_lines = len(text.splitlines())
        return st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_lines),
                st.sampled_from(["", "# note", "    # indented note"]),
            ),
            max_size=6,
        )

    return st.fixed_dictionaries(
        {name: per_file(text) for name, text in files.items()}
    )


def _reformat(text: str, inserts: List[Tuple[int, str]]) -> str:
    lines = text.splitlines()
    for position, filler in sorted(inserts, reverse=True):
        lines.insert(position, filler)
    return "\n".join(lines) + "\n"


class TestDeterminismAndStability:
    def test_base_sources_produce_the_expected_findings(self):
        _dot, _lock, prints = _graph_and_fingerprints(BASE_SOURCES)
        assert [rule for rule, _fp, _cfp in prints] == ["REP010", "REP010"]

    def test_two_builds_are_byte_identical(self):
        first = _graph_and_fingerprints(BASE_SOURCES)
        second = _graph_and_fingerprints(BASE_SOURCES)
        assert first == second

    @settings(max_examples=50, deadline=None)
    @given(inserts=_insertions(BASE_SOURCES))
    def test_reformatting_moves_lines_but_nothing_else(self, inserts):
        reformatted = {
            name: _reformat(text, inserts[name])
            for name, text in BASE_SOURCES.items()
        }
        base = _graph_and_fingerprints(BASE_SOURCES)
        moved = _graph_and_fingerprints(reformatted)
        # Graph shape is line-free, fingerprints are content-addressed:
        # a pure reformat changes neither.
        assert moved == base
