"""CLI contract: exit codes 0/1/2, JSON schema, baseline lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main

CLEAN_SOURCE = '"""Clean module."""\n\nVALUE = 3\n'
DIRTY_SOURCE = (
    '"""Module with one REP006 finding."""\n\nimport time\n\nSTAMP = time.time()\n'
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """An isolated cwd so the repo's committed baseline never interferes."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(workdir, name, source):
    path = workdir / name
    path.write_text(source, encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, workdir, capsys):
        write(workdir, "clean.py", CLEAN_SOURCE)
        assert main([str(workdir)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, workdir, capsys):
        write(workdir, "dirty.py", DIRTY_SOURCE)
        assert main([str(workdir)]) == 1
        assert "REP006" in capsys.readouterr().out

    def test_missing_path_exits_two(self, workdir, capsys):
        assert main([str(workdir / "absent")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_update_baseline_conflicts_with_no_baseline(self, workdir, capsys):
        write(workdir, "clean.py", CLEAN_SOURCE)
        code = main([str(workdir), "--update-baseline", "--no-baseline"])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_explicit_missing_baseline_exits_two(self, workdir, capsys):
        write(workdir, "clean.py", CLEAN_SOURCE)
        code = main([str(workdir), "--baseline", str(workdir / "nope.json")])
        assert code == 2
        assert "no such baseline" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, workdir, capsys):
        write(workdir, "clean.py", CLEAN_SOURCE)
        bad = write(workdir, "baseline.json", "{broken")
        assert main([str(workdir / "clean.py"), "--baseline", str(bad)]) == 2
        assert "unreadable baseline" in capsys.readouterr().err

    def test_parse_error_is_a_finding_not_a_crash(self, workdir, capsys):
        write(workdir, "broken.py", "def broken(:\n    return\n")
        assert main([str(workdir / "broken.py")]) == 1
        assert "REP000" in capsys.readouterr().out


class TestJsonOutput:
    def test_schema(self, workdir, capsys):
        write(workdir, "dirty.py", DIRTY_SOURCE)
        assert main([str(workdir), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["files_checked"] == 1
        assert payload["exit_code"] == 1
        assert payload["counts"] == {
            "total": 1,
            "new": 1,
            "baselined": 0,
            "expired": 0,
        }
        assert set(payload["rules"]) == {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP006"
        assert finding["line"] == 5
        assert finding["baselined"] is False
        assert len(finding["fingerprint"]) == 16

    def test_output_file_written_even_in_human_format(self, workdir, capsys):
        write(workdir, "dirty.py", DIRTY_SOURCE)
        report = workdir / "report.json"
        assert main([str(workdir), "--output", str(report)]) == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["counts"]["new"] == 1
        assert "REP006" in capsys.readouterr().out


class TestBaselineLifecycle:
    def test_update_then_rerun_is_clean_then_expires(self, workdir, capsys):
        dirty = write(workdir, "dirty.py", DIRTY_SOURCE)
        baseline = workdir / "accepted.json"

        code = main([str(dirty), "--update-baseline", "--baseline", str(baseline)])
        assert code == 0
        assert "updated with 1 finding(s)" in capsys.readouterr().out

        code = main([str(dirty), "--baseline", str(baseline)])
        assert code == 0
        out = capsys.readouterr().out
        assert "(baselined)" in out

        write(workdir, "dirty.py", CLEAN_SOURCE)
        code = main([str(dirty), "--baseline", str(baseline), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {
            "total": 0,
            "new": 0,
            "baselined": 0,
            "expired": 1,
        }

    def test_default_baseline_discovered_in_cwd(self, workdir, capsys):
        write(workdir, "dirty.py", DIRTY_SOURCE)
        assert main(["dirty.py", "--update-baseline"]) == 0
        assert (workdir / "lint-baseline.json").exists()
        capsys.readouterr()
        assert main(["dirty.py"]) == 0

    def test_no_baseline_flag_reports_everything(self, workdir, capsys):
        dirty = write(workdir, "dirty.py", DIRTY_SOURCE)
        baseline = workdir / "lint-baseline.json"
        assert main([str(dirty), "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main([str(dirty), "--no-baseline"]) == 1


class TestMainCliSubcommand:
    def test_repro_lint_subcommand_shares_the_contract(self, workdir, capsys):
        from repro.cli import main as repro_main

        write(workdir, "dirty.py", DIRTY_SOURCE)
        assert repro_main(["lint", str(workdir)]) == 1
        assert "REP006" in capsys.readouterr().out
        write(workdir, "dirty.py", CLEAN_SOURCE)
        assert repro_main(["lint", str(workdir)]) == 0


class TestListRules:
    def test_catalogue_lists_every_rule(self, workdir, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
        ):
            assert rule_id in out
        assert "invariant" in out

    def test_catalogue_names_each_rules_exempt_modules(self, workdir, capsys):
        """A rule's scope line lists the modules it exempts, read from
        the same ``exempt_modules`` its ``applies_to`` skips."""
        assert main(["--list-rules"]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert "reliability/durable.py" in lines["REP002"]
        assert "reliability/faults.py" in lines["REP002"]
        assert "obs/clock.py" in lines["REP006"]
        assert "service/metrics.py" in lines["REP007"]
        assert "exempt" not in lines["REP001"]
