"""CLI tests: exit codes, output shapes, file round-trips."""

from __future__ import annotations

import json

import pytest

from arlabel import dss
from arlabel.check import Labeling, save_labeling
from arlabel.cli import main, parse_duration
from arlabel.graphs import path, save_graph, star


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestDurations:
    def test_plain_seconds(self):
        assert parse_duration("90") == 90.0

    def test_suffixes(self):
        assert parse_duration("30s") == 30.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("2h") == 7200.0

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration("fast")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration("-3s")
        # NaN, and durations that never expire, by themselves or once
        # multiplied by their unit.
        for text in ("nan", "nans", "inf", "infs", "1e400", "1e308h"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_duration(text)


class TestEsCommand:
    def test_known_value(self, capsys):
        code, out = run(capsys, "es", "5")
        assert code == 0
        assert "ES(5) = 13" in out
        assert "witness" in out

    def test_machine_format(self, capsys):
        code, out = run(capsys, "es", "4", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 7
        assert doc["witness"] == [3, 5, 6, 7]
        assert doc["nodes"] == 2

    def test_es_seven_with_budget_flag(self, capsys):
        code, out = run(capsys, "es", "7", "--budget", "300s")
        assert code == 0
        assert "ES(7) = 44" in out

    def test_beyond_known_range_exits_three(self, capsys):
        code, out = run(capsys, "es", "12", "--budget", "1s")
        assert code == 3
        assert "bound-only: budget exhausted" in out

    def test_mask_cap_named_as_the_stop(self, capsys):
        # ES(24)'s first candidate maximum, C(24, 12), needs a difference
        # mask above the cap: the search stops at once, not for lack of time.
        code, out = run(capsys, "es", "24", "--budget", "1s")
        assert code == 3
        assert "bound-only: candidate maximum 2704156 needs a difference mask above the cap" in out
        assert "budget exhausted" not in out
        code, out = run(capsys, "es", "24", "--budget", "1s", "--format", "machine")
        assert code == 3
        assert json.loads(out)["stopped_by"] == "mask cap"

    def test_bad_n_is_input_error(self, capsys):
        code, _ = run(capsys, "es", "0")
        assert code == 2

    def test_nan_budget_is_input_error(self):
        # A NaN budget never expires; it is refused like any bad duration.
        # ES(3) keeps the run short should it be accepted.
        with pytest.raises(SystemExit) as stop:
            main(["es", "3", "--budget", "nan"])
        assert stop.value.code == 2

    def test_output_file_receives_machine_record(self, capsys, tmp_path):
        out_file = tmp_path / "es4.json"
        code, _ = run(capsys, "es", "4", "--output", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["value"] == 7 and doc["witness"] == [3, 5, 6, 7]

    def test_output_to_a_directory_is_input_error(self, capsys, tmp_path):
        assert main(["es", "4", "--output", str(tmp_path)]) == 2
        assert "input error" in capsys.readouterr().err


class TestDssCommands:
    def test_check_dss(self, capsys):
        code, out = run(capsys, "dss", "check", "3", "5", "6", "7")
        assert code == 0
        assert "DSS" in out

    def test_check_collision_certificate(self, capsys):
        code, out = run(capsys, "dss", "check", "1", "2", "3")
        assert code == 1
        assert "[1, 2]" in out and "[3]" in out

    @pytest.mark.parametrize(
        "elements",
        [(1, 3, 2**40), (1, 3, 2**62), (2**62, 2**62 - 1, 2)],
        ids=[str(2**40), str(2**62), "total-above-2**63"],
    )
    def test_check_large_elements_dss(self, capsys, elements):
        # A bitmap would need about total bits; the assertion comes first
        # so a wrong core or cost rule fails here instead of allocating it.
        _, n, total = dss._core(elements)
        assert not n or not dss._bitmap_is_cheaper(n, total)
        code, out = run(capsys, "dss", "check", *map(str, elements))
        assert code == 0
        assert out.startswith("DSS")

    def test_check_large_elements_collision(self, capsys):
        big = 2**40
        # 2^40 is stripped, so the bitmap spans the core's total, 6.
        assert dss._core((1, 2, 3, big))[1:] == (3, 6)
        code, out = run(capsys, "dss", "check", "1", "2", "3", str(big), "--format", "machine")
        assert code == 1
        doc = json.loads(out)
        assert doc["collision"] == [[1, 2], [3]] and doc["sum"] == 3

    def test_check_duplicates_rejected(self, capsys):
        code, _ = run(capsys, "dss", "check", "2", "2")
        assert code == 2

    def test_enum(self, capsys):
        code, out = run(capsys, "dss", "enum", "--size", "5", "--cap", "13")
        assert code == 0
        assert "[3, 6, 11, 12, 13]" in out
        assert "[6, 9, 11, 12, 13]" in out
        assert "2 set(s)" in out

    def test_enum_machine(self, capsys):
        code, out = run(capsys, "dss", "enum", "--size", "4", "--cap", "7", "--format", "machine")
        assert code == 0
        assert json.loads(out)["sets"] == [[3, 5, 6, 7]]

    def test_check_takes_no_budget(self):
        # Only es and ari search under a budget; elsewhere the flag is a
        # usage error rather than silently ignored.
        with pytest.raises(SystemExit) as stop:
            main(["dss", "check", "3", "5", "6", "7", "--budget", "1s"])
        assert stop.value.code == 2

    def test_enum_takes_no_budget(self):
        with pytest.raises(SystemExit) as stop:
            main(["dss", "enum", "--size", "4", "--cap", "7", "--budget", "1s"])
        assert stop.value.code == 2


class TestVerifyCommand:
    def test_ok(self, capsys, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        code, out = run(capsys, "verify", str(tmp_path / "g.json"), str(tmp_path / "l.json"))
        assert code == 0
        assert "ok" in out

    def test_violation(self, capsys, tmp_path):
        save_graph(star(3), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        code, out = run(capsys, "verify", str(tmp_path / "g.json"), str(tmp_path / "l.json"))
        assert code == 1
        assert "vertex 0" in out

    def test_parse_error(self, capsys, tmp_path):
        (tmp_path / "g.json").write_text('{"vertices": 2, "edges": [[1, 1]]}')
        save_labeling(Labeling((1,)), tmp_path / "l.json")
        code, _ = run(capsys, "verify", str(tmp_path / "g.json"), str(tmp_path / "l.json"))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "verify", str(tmp_path / "nope.json"), str(tmp_path / "l.json"))
        assert code == 2

    def test_directory_is_input_error_not_a_failed_check(self, capsys, tmp_path):
        # Exit 1 would read as an invalid labeling.
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        assert main(["verify", str(tmp_path), str(tmp_path / "l.json")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_takes_no_budget(self, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        with pytest.raises(SystemExit) as stop:
            main(["verify", str(tmp_path / "g.json"), str(tmp_path / "l.json"), "--budget", "1s"])
        assert stop.value.code == 2


class TestAriCommand:
    def test_star(self, capsys):
        code, out = run(capsys, "ari", "star", "4")
        assert code == 0
        assert "ARI(K_{1,4}) = 7" in out

    def test_complete_five_is_ar(self, capsys):
        code, out = run(capsys, "ari", "complete", "5", "--budget", "2m")
        assert code == 0
        assert "= 10" in out
        assert "AR-graph: yes" in out

    def test_bistar_almost_ar(self, capsys):
        code, out = run(capsys, "ari", "bistar", "3", "3")
        assert code == 0
        assert "= 8" in out
        assert "almost AR" in out

    def test_machine_record_counts_search_work(self, capsys):
        code, out = run(capsys, "ari", "bistar", "3", "3", "--format", "machine")
        assert code == 0
        search = json.loads(out)["search"]
        assert search["probes"] > 0
        assert search["forward_prunes"] > 0
        assert search["symmetry_prunes"] > 0

    def test_multipartite_spec(self, capsys):
        code, out = run(capsys, "ari", "multipartite", "2,2", "--budget", "1m")
        assert code == 0
        assert "ARI(K_{2,2}) = 4" in out

    def test_witness_round_trips_through_verify(self, capsys, tmp_path):
        out_file = tmp_path / "witness.json"
        graph_file = tmp_path / "graph.json"
        save_graph(star(4), graph_file)
        code, _ = run(capsys, "ari", "star", "4", "--output", str(out_file))
        assert code == 0
        code, out = run(capsys, "verify", str(graph_file), str(out_file))
        assert code == 0

    def test_graph_file_input(self, capsys, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        code, out = run(capsys, "ari", "--file", str(tmp_path / "g.json"))
        assert code == 0
        assert "= 3" in out

    def test_unknown_family(self, capsys):
        code, _ = run(capsys, "ari", "torus", "3")
        assert code == 2

    def test_bad_arity(self, capsys):
        code, _ = run(capsys, "ari", "star")
        assert code == 2

    def test_budget_exhaustion_exit(self, capsys, slow_clock, tmp_path):
        report = tmp_path / "ari.json"
        code, out = run(capsys, "ari", "complete", "6", "--budget", "1.5s", "--output", str(report))
        assert code == 3
        assert "bounds-only" in out
        # The search reached a clock check: one every 1024 nodes or probes.
        search = json.loads(report.read_text())["search"]
        assert search["nodes"] >= 1024 or search["probes"] >= 1024

    def test_edge_cap_is_input_error(self, capsys):
        code, _ = run(capsys, "ari", "complete", "10")
        assert code == 2

    def test_deterministic_across_processes(self, tmp_path):
        # results must not depend on hash seeding
        import subprocess
        import sys
        from pathlib import Path

        import arlabel

        # The children get a fresh environment, so hand them the directory
        # this process imported arlabel from (a source tree on PYTHONPATH or
        # site-packages), and run them away from the caller's directory.
        root = Path(arlabel.__file__).resolve().parent.parent
        outs = []
        for seed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-m", "arlabel", "ari", "bistar", "3", "3",
                 "--format", "machine"],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": str(root)},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["value"] == 8
