"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.network.io import save_network
from repro.sat.portfolio import fork_available
from repro.tasks import batch
from repro.tasks.result import TaskResult


class TestList:
    def test_lists_all_cases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("running-example", "simple-layout", "complex-layout",
                    "nordlandsbanen"):
            assert key in out


class TestCaseTasks:
    def test_verify_running_example_exit_code(self, capsys):
        # Table I: the running example verification is UNSAT -> exit 1.
        assert main(["verify", "--case", "running-example"]) == 1
        out = capsys.readouterr().out
        assert "verification" in out and "No" in out

    def test_generate_running_example(self, capsys):
        assert main(["generate", "--case", "running-example"]) == 0
        out = capsys.readouterr().out
        assert "generation" in out
        assert "sections" in out

    def test_optimize_with_diagram(self, capsys):
        code = main([
            "optimize", "--case", "running-example",
            "--min-borders", "--diagram",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimization" in out
        assert "t " in out.splitlines()[-11]  # diagram header row

    def test_unknown_case(self):
        with pytest.raises(SystemExit, match="unknown case"):
            main(["verify", "--case", "atlantis"])


class TestCustomNetwork:
    def test_verify_custom_network(self, micro_line, tmp_path, capsys):
        path = tmp_path / "net.json"
        save_network(micro_line, path)
        code = main([
            "verify", "--network", str(path),
            "--r-s", "0.5", "--r-t", "0.5", "--duration", "5",
            "--train", "T,A,B,120,400,0,4",
        ])
        assert code == 0

    def test_open_arrival_dash(self, micro_line, tmp_path):
        path = tmp_path / "net.json"
        save_network(micro_line, path)
        code = main([
            "optimize", "--network", str(path),
            "--r-s", "0.5", "--r-t", "0.5", "--duration", "5",
            "--train", "T,A,B,120,400,0,-",
        ])
        assert code == 0

    def test_network_requires_train(self, micro_line, tmp_path):
        path = tmp_path / "net.json"
        save_network(micro_line, path)
        with pytest.raises(SystemExit, match="at least one"):
            main(["verify", "--network", str(path)])

    def test_missing_scenario(self):
        with pytest.raises(SystemExit, match="--case or --network"):
            main(["verify"])

    def test_bad_train_spec(self, micro_line, tmp_path):
        path = tmp_path / "net.json"
        save_network(micro_line, path)
        with pytest.raises(SystemExit, match="bad --train"):
            main([
                "verify", "--network", str(path),
                "--train", "only,three,fields",
            ])

    def test_bad_train_values(self, micro_line, tmp_path):
        path = tmp_path / "net.json"
        save_network(micro_line, path)
        with pytest.raises(SystemExit, match="bad --train"):
            main([
                "verify", "--network", str(path), "--duration", "5",
                "--train", "T,A,B,banana,400,0,4",
            ])


class TestTable1:
    def test_skip_slow_runs_two_networks(self, capsys):
        assert main(["table1", "--skip-slow"]) == 0
        out = capsys.readouterr().out
        assert "Running Example" in out
        assert "Simple Layout" in out
        assert "Complex Layout" not in out
        assert out.count("verification") == 2

    @pytest.mark.parametrize("flags", [
        [],
        ["--job-timeout", "600"],
        ["--manifest", "MANIFEST"],
        pytest.param(["-j", "2"], marks=pytest.mark.skipif(
            not fork_available(), reason="platform lacks fork")),
    ])
    def test_profile_reaches_every_row(self, flags, tmp_path, monkeypatch,
                                       capsys):
        # Every table1 run goes through the batch runner, which hands
        # --profile to each row's task call; the rows record their
        # keyword arguments in a file (pool workers are other processes).
        calls = tmp_path / "calls.jsonl"

        def fake_case_task(case, task, **kwargs):
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(json.dumps([case, task, kwargs]) + "\n")
            return TaskResult(
                task=task, variables=1, satisfiable=True, num_sections=1,
                time_steps=1, runtime_s=0.0,
            )

        monkeypatch.setattr(batch, "run_case_task", fake_case_task)
        flags = [str(tmp_path / "m.jsonl") if flag == "MANIFEST" else flag
                 for flag in flags]
        assert main(["table1", "--skip-slow", "--profile", *flags]) == 0
        assert "Simple Layout" in capsys.readouterr().out
        rows = [json.loads(line) for line in calls.read_text().splitlines()]
        assert len(rows) == 6
        assert all(kwargs["profile"] is True for _, _, kwargs in rows)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--case", "x", "--strategy", "magic"]
            )


class TestExport:
    def test_export_roundtrips_through_solver(self, tmp_path, capsys):
        from repro.sat import Solver, SolveResult, parse_dimacs_file

        path = tmp_path / "re.cnf"
        code = main([
            "export", "--case", "running-example",
            "--pin-pure-ttd", "--output", str(path),
        ])
        assert code == 0
        num_vars, clauses = parse_dimacs_file(path)
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        # The pinned pure-TTD verification instance is the paper's UNSAT.
        assert solver.solve() is SolveResult.UNSAT

    def test_export_free_borders_is_sat(self, tmp_path):
        from repro.sat import Solver, SolveResult, parse_dimacs_file

        path = tmp_path / "free.cnf"
        assert main([
            "export", "--case", "running-example", "--output", str(path),
        ]) == 0
        num_vars, clauses = parse_dimacs_file(path)
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.SAT


class TestNewFlags:
    def test_verify_with_proof_flag(self, capsys):
        code = main(["verify", "--case", "running-example", "--proof"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DRAT proof of infeasibility: VALID" in out

    def test_optimize_total_arrival(self, capsys):
        code = main([
            "optimize", "--case", "running-example",
            "--objective", "total-arrival",
        ])
        assert code == 0
        assert "optimization" in capsys.readouterr().out


class TestTimetableFlag:
    def test_optimize_with_timetable(self, capsys):
        code = main([
            "optimize", "--case", "running-example",
            "--min-borders", "--timetable",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "train 1" in out
        assert "dep" in out and "arr" in out
