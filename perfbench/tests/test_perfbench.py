"""Tests of the benchmark harness itself (tiny sizes, a few seconds).

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import main
from perfbench.tracing import Span, self_time_by_name, self_times, unattributed, union_length
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(capsys, workload: str, trace: int, seed: int = 3):
    code = main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        size="tiny",
    )
    lines = capsys.readouterr().out.strip().splitlines()
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    return code, json.loads(lines[-1]), facts


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_metric_present_with_unit(capsys, workload, trace):
    code, result, facts = _run(capsys, workload, trace)
    assert code == 0, facts["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric.name: metric.unit for metric in expected
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert len(facts["digest"]) == 64
    for fact in ("nproc", "python", "numpy", "git_describe", "seed", "sizes"):
        assert fact in facts


def _span(span_id, parent, name, start, end, thread=1):
    return Span(span_id, parent, name, float(start), float(end), thread)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, None, "batch", 0, 10),
        _span(2, 1, "scan", 1, 4, thread=2),  # overlaps its sibling:
        _span(3, 1, "scan", 2, 6, thread=3),  # union is [1, 6]
        _span(4, 2, "signature", 1.5, 2.5, thread=2),
        _span(5, 1, "late", 9, 12),  # clipped to its parent's end
        _span(6, None, "ingest", 11, 11.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 1)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(4)
    assert own[4] == pytest.approx(1)
    by_name = self_time_by_name(spans)
    assert by_name["scan"] == pytest.approx(6)
    # Window [0, 14]: spans cover [0, 12] -> 2 s unattributed.
    assert unattributed(spans, [(0.0, 14.0)]) == pytest.approx(2)
    # Windows cutting spans count only their own parts.
    assert unattributed(spans, [(5.0, 13.0)]) == pytest.approx(1)
    assert unattributed(spans, [(-1.0, 1.0), (11.0, 13.0)]) == pytest.approx(1 + 1)


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3)


@pytest.mark.parametrize("workload", ["batch-10k", "stream-ingest"])
def test_counts_and_digest_repeat_for_a_seed(capsys, workload):
    runs = [_run(capsys, workload, trace=1, seed=7) for _ in range(2)]
    (_, first, first_facts), (_, second, second_facts) = runs
    value = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
             for name in first["metrics"]}
    for name in ("io.sync_ops", "io.replaces", "io.sync_ops_per_commit",
                 "service.indexed.verifications"):
        assert value[name][0] == value[name][1], name
    # The stream's report.json embeds its latency histograms, so its
    # length varies between runs; every other file repeats byte for byte.
    files = first_facts["io_bytes_by_file"], second_facts["io_bytes_by_file"]
    varying = {name for name in {*files[0], *files[1]} if files[0].get(name) != files[1].get(name)}
    assert varying <= {"report.json.tmp"}, varying
    if workload == "batch-10k":
        assert value["io.bytes_written"][0] == value["io.bytes_written"][1]
    assert first["metrics"]["service.indexed.verifications"]["value"] > 0
    if workload == "stream-ingest":
        assert first["metrics"]["io.sync_ops"]["value"] > 0
    assert first_facts["digest"] == second_facts["digest"]


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (metric.name, metric.unit, metric.better) for metric in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (metric.name, metric.unit, metric.better) for metric in PER_LAYER
    ]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
