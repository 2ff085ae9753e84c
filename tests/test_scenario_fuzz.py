"""The randomized differential fuzz harness (headline deliverable).

25+ seeded scenarios each run through the three solver pipelines —
eager-serial, lazy CEGAR, solver-service CEGAR — must
agree on every verdict and on the generation optimum; the whole run is
a pure function of the seed.  A deliberately lying path exercises the
failure machinery: shrinking and reproducer emission.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.scenarios.fuzz as fuzz_mod
from repro.cli import main
from repro.sat.portfolio import fork_available
from repro.scenarios.fuzz import (
    PATHS,
    FuzzRecord,
    path_verdicts,
    reproduce,
    run_fuzz,
    write_report,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@needs_fork
class TestDifferentialAgreement:
    def test_25_scenarios_agree_across_all_paths(self):
        report = run_fuzz(count=25, seed=0, jobs=2, check_optimum=True)
        assert report.ok
        assert len(report.records) >= 25
        for record in report.records:
            assert set(record.verdicts) == set(PATHS)
            assert len(set(record.verdicts.values())) == 1
            assert record.optima["eager"] == record.optima["lazy"]
        # The run must exercise both verdicts, or it proves nothing.
        verdicts = {r.verdicts["eager"] for r in report.records}
        assert verdicts == {True, False}
        metrics = report.metrics
        assert metrics["scenario.generated"] == 25
        assert metrics["scenario.disagreements"] == 0 if (
            "scenario.disagreements" in metrics
        ) else True
        assert metrics["scenario.agreement"] == 1.0
        assert (
            metrics["scenario.verdict.sat"]
            + metrics["scenario.verdict.unsat"]
        ) == 25

    def test_run_is_seed_deterministic(self):
        first = run_fuzz(count=4, seed=3, jobs=2, check_optimum=False)
        second = run_fuzz(count=4, seed=3, jobs=2, check_optimum=False)
        assert first.as_dict() == second.as_dict()


@needs_fork
class TestFailureMachinery:
    def _liar(self):
        """A verdict oracle whose 'lazy' entry always lies."""
        def lying_verdicts(scenario, jobs=2, paths=PATHS):
            honest = path_verdicts(scenario, jobs, ("eager",))["eager"]
            return {"eager": honest, "lazy": not honest}

        return lying_verdicts

    def test_disagreement_is_shrunk_and_reproduced(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fuzz_mod, "path_verdicts", self._liar())
        out = tmp_path / "failures"
        report = run_fuzz(
            count=1, seed=5, jobs=2, check_optimum=False,
            out_dir=str(out), paths=("eager", "lazy"),
        )
        assert not report.ok
        (record,) = report.disagreements
        assert record.shrink_steps >= 1
        assert record.reproducer is not None
        payload = json.loads(open(record.reproducer).read())
        # The lie survives any shrink, so the minimum is one train.
        assert len(payload["schedule"]["trains"]) == 1
        assert payload["meta"]["fuzz"]["verdicts"] == record.verdicts
        monkeypatch.undo()
        # Replayed honestly, the reproducer agrees again.
        replay = reproduce(
            record.reproducer, jobs=2, check_optimum=False
        )
        assert replay.verdicts_agree

    def test_shrink_respects_check_budget(self, monkeypatch):
        scenario = fuzz_mod.fuzz_scenario(5, 0)
        checks = 0

        def always_failing(candidate):
            nonlocal checks
            checks += 1
            return True

        smallest, steps = fuzz_mod.shrink(
            scenario, always_failing, max_checks=3
        )
        assert checks <= 3
        assert steps <= 3

    def test_agree_flag_combines_verdicts_and_optima(self):
        record = FuzzRecord(seed=0, name="x", headroom=0, trains=1,
                            tracks=1)
        assert record.agree
        record.optima_agree = False
        assert not record.agree


@needs_fork
class TestFuzzCli:
    def test_cli_fuzz_smoke(self, capsys):
        code = main([
            "fuzz", "--seed", "1", "--count", "2", "--no-optimum",
            "-j", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzzed 2 scenarios" in out
        assert "all solver paths agree" in out

    def test_cli_fuzz_report_and_metrics(self, tmp_path, capsys):
        report_file = tmp_path / "fuzz.json"
        metrics_file = tmp_path / "metrics.json"
        code = main([
            "fuzz", "--seed", "2", "--count", "2", "--no-optimum",
            "-j", "2", "--report", str(report_file),
            "--metrics", str(metrics_file),
        ])
        assert code == 0
        payload = json.loads(report_file.read_text())
        assert payload["ok"] and payload["count"] == 2
        metrics = json.loads(metrics_file.read_text())
        assert metrics["scenario.generated"] == 2

    def test_cli_reproduce_round_trip(self, tmp_path, capsys):
        scenario = fuzz_mod.fuzz_scenario(4, 0)
        path = tmp_path / "repro.json"
        path.write_text(scenario.to_json())
        code = main([
            "fuzz", "--reproduce", str(path), "--no-optimum", "-j", "2",
        ])
        assert code == 0
        assert "agree" in capsys.readouterr().out


class TestFuzzScenarioSampling:
    def test_scenarios_are_size_clamped(self):
        for index in range(8):
            scenario = fuzz_mod.fuzz_scenario(
                0, index, max_trains=3, max_loops=1
            )
            spec = scenario.meta["spec"]
            assert spec["trains"] <= 3
            assert spec["loops"] <= 1
            assert 0 <= scenario.meta["fuzz"]["headroom"] <= 3

    def test_distinct_indices_give_distinct_seeds(self):
        a = fuzz_mod.fuzz_scenario(0, 1)
        b = fuzz_mod.fuzz_scenario(0, 2)
        assert a.seed != b.seed
        assert a.name != b.name
