"""Tests for the four §IV case studies.

Structure checks run for all four; full task reproduction runs on the
running example (fast) — the complete Table I lives in the benchmarks.
"""

from __future__ import annotations

import pytest

from repro.casestudies import all_case_studies, case_study
from repro.casestudies.complex_layout import complex_layout
from repro.casestudies.nordlandsbanen import (
    STATIONS,
    is_crossing_station,
    nordlandsbanen,
)
from repro.casestudies.running_example import running_example
from repro.casestudies.simple_layout import simple_layout
from repro.tasks import generate_layout, optimize_schedule, verify_schedule


class TestInventory:
    def test_four_studies_in_paper_order(self):
        names = [study.name for study in all_case_studies()]
        assert names == [
            "Running Example",
            "Simple Layout",
            "Complex Layout",
            "Nordlandsbanen",
        ]

    def test_each_study_has_paper_rows(self):
        for study in all_case_studies():
            tasks = [row.task for row in study.paper_rows]
            assert tasks == ["verification", "generation", "optimization"]

    def test_paper_row_verdicts(self):
        for study in all_case_studies():
            verification, generation, optimization = study.paper_rows
            assert not verification.satisfiable
            assert generation.satisfiable
            assert optimization.satisfiable


class TestLookup:
    KEYS = ["running-example", "simple-layout", "complex-layout",
            "nordlandsbanen"]

    def test_each_key_builds_its_study(self):
        assert [study.key for study in all_case_studies()] == self.KEYS
        for study in all_case_studies():
            assert case_study(study.key).name == study.name

    def test_builds_only_the_requested_study(self, monkeypatch):
        import repro.casestudies.nordlandsbanen as module

        def refuse():
            raise AssertionError("built a study nobody asked for")

        monkeypatch.setattr(module, "nordlandsbanen", refuse)
        assert case_study("running-example").name == "Running Example"

    def test_unknown_key_names_the_known_keys(self):
        with pytest.raises(ValueError, match=", ".join(self.KEYS)):
            case_study("atlantis")

    def test_callers_keep_their_errors(self):
        from repro.cli import main
        from repro.gateway import RequestError
        from repro.gateway.requests import parse_scenario
        from repro.tasks.batch import run_case_task

        with pytest.raises(SystemExit, match="known: running-example"):
            main(["verify", "--case", "atlantis"])
        with pytest.raises(ValueError, match="unknown case study"):
            run_case_task("atlantis", "verification")
        with pytest.raises(RequestError, match="unknown case study"):
            parse_scenario({"case": "atlantis"})


class TestRunningExample:
    def test_structure_matches_paper(self):
        study = running_example()
        net = study.discretize()
        assert net.num_ttds == 4
        assert net.num_segments == 16  # -> 640 occupies variables (Fig. 3)
        assert study.network.total_length_km == pytest.approx(8.0)
        assert len(study.schedule) == 4

    def test_schedule_is_fig_1b(self):
        study = running_example()
        by_name = {run.train.name: run for run in study.schedule}
        assert by_name["1"].train.max_speed_kmh == 180
        assert by_name["2"].train.length_m == 700
        assert by_name["3"].goal == "C"
        assert by_name["4"].departure_min == 1.0
        assert study.schedule.duration_min == 5.0

    def test_verification_unsat(self):
        study = running_example()
        net = study.discretize()
        result = verify_schedule(net, study.schedule, study.r_t_min)
        assert not result.satisfiable
        assert result.num_sections == 4

    def test_generation_five_sections(self):
        study = running_example()
        net = study.discretize()
        result = generate_layout(net, study.schedule, study.r_t_min)
        assert result.satisfiable and result.proven_optimal
        assert result.num_sections == 5  # the paper's Table I value
        # Generation descends from below by default.
        assert result.fingerprint["strategy"] == "core"

    def test_optimization_seven_steps(self):
        study = running_example()
        net = study.discretize()
        result = optimize_schedule(
            net, study.schedule, study.r_t_min,
            minimize_borders_secondary=True,
        )
        assert result.satisfiable and result.proven_optimal
        assert result.time_steps == 7  # the paper's Table I value
        assert result.num_sections == 7  # the paper's Table I value

    def test_variables_close_to_paper(self):
        study = running_example()
        net = study.discretize()
        result = verify_schedule(net, study.schedule, study.r_t_min)
        assert abs(result.variables - 654) <= 10


class TestSimpleLayout:
    def test_structure(self):
        study = simple_layout()
        net = study.discretize()
        assert net.num_ttds == 10  # the paper's Table I value
        assert net.num_segments == 48
        assert len(study.schedule) == 4

    def test_verification_unsat(self):
        study = simple_layout()
        result = verify_schedule(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert not result.satisfiable

    def test_generation_sat_few_borders(self):
        study = simple_layout()
        result = generate_layout(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert result.satisfiable and result.proven_optimal
        assert 1 <= result.objective_value <= 5


class TestComplexLayout:
    def test_structure(self):
        study = complex_layout()
        net = study.discretize()
        assert net.num_ttds == 22  # the paper's Table I value
        assert net.num_segments == 157
        assert len(study.schedule) == 5
        # Stations A..F all present with two platforms each.
        assert set(study.network.stations) == set("ABCDEF")
        for tracks in study.network.stations.values():
            assert len(tracks) == 2

    def test_verification_unsat(self):
        study = complex_layout()
        result = verify_schedule(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert not result.satisfiable


class TestNordlandsbanen:
    def test_structure(self):
        study = nordlandsbanen()
        net = study.discretize()
        assert len(STATIONS) == 58
        assert STATIONS[0] == "Trondheim"
        assert STATIONS[-1] == "Bodø"
        # 822 km of line plus the loop tracks and the Bodø stub.
        loop_km = sum(
            5.0 for i in range(len(STATIONS)) if is_crossing_station(i)
        )
        assert study.network.total_length_km == pytest.approx(
            822.0 + loop_km + 5.0
        )
        assert 45 <= net.num_ttds <= 55  # paper: 51
        assert len(study.schedule) == 3

    def test_crossing_stations_have_loops(self):
        study = nordlandsbanen()
        for index, name in enumerate(STATIONS):
            tracks = study.network.stations[name]
            assert len(tracks) == (2 if is_crossing_station(index) else 1)

    def test_paper_equivalent_vars_close(self):
        study = nordlandsbanen()
        net = study.discretize()
        result = verify_schedule(net, study.schedule, study.r_t_min)
        # Paper: 21156. Same order of magnitude required.
        assert 18_000 <= result.variables <= 25_000

    def test_verification_unsat(self):
        study = nordlandsbanen()
        result = verify_schedule(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert not result.satisfiable

    def test_generation_sat(self):
        study = nordlandsbanen()
        result = generate_layout(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert result.satisfiable
        assert result.proven_optimal
        assert 1 <= result.objective_value <= 8  # paper adds 2 sections
