"""Randomized differential fuzz harness over solver paths.

Every scenario the generator mints is solved through three independent
pipelines that must agree bit-for-bit on the verdict:

* ``eager``   — serial solve of the full eager encoding;
* ``lazy``    — serial CEGAR loop over the lazily-deferred families;
* ``service`` — CEGAR loop on the resident incremental solver service.

Optionally the generation task's optimum (minimum added VSS borders) is
cross-checked between the eager and lazy descents — the lazy refinement
provably cannot change it, so any difference is a bug.

A disagreement is *shrunk* — trains dropped, tracks blocked, greedily,
for as long as the smaller scenario still disagrees — and the minimal
scenario is written out as a reproducer JSON file that
:func:`reproduce` (or ``repro fuzz --reproduce``) replays exactly.

Everything derives from the run seed: the same seed always generates
the same scenarios, verdicts, and records, byte for byte.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, field

from repro.obs import events as obs_events
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.disruptions import DisruptionError, blocked_track
from repro.scenarios.generator import generate_scenario, with_headroom
from repro.scenarios.spec import Scenario, ScenarioSpec, scenario_from_json
from repro.trains.schedule import Schedule

#: The solver paths every scenario is pushed through.
PATHS = ("eager", "lazy", "service")


def solve_path(scenario: Scenario, path: str, jobs: int = 2,
               profile: bool = False):
    """Run the verification task of ``scenario`` along one path."""
    from repro.tasks.verification import verify_schedule

    net = scenario.discretize()
    if path == "eager":
        return verify_schedule(
            net, scenario.schedule, scenario.r_t_min,
            lazy=False, parallel=1, profile=profile,
        )
    if path == "lazy":
        return verify_schedule(
            net, scenario.schedule, scenario.r_t_min,
            lazy=True, parallel=1, profile=profile,
        )
    if path == "service":
        return verify_schedule(
            net, scenario.schedule, scenario.r_t_min,
            lazy=True, parallel=jobs, profile=profile,
        )
    raise ValueError(f"unknown path {path!r}")


def path_verdicts(scenario: Scenario, jobs: int = 2,
                  paths: tuple[str, ...] = PATHS,
                  profile: bool = False) -> dict[str, bool]:
    """The verification verdict of every path on ``scenario``."""
    return {
        path: bool(
            solve_path(scenario, path, jobs, profile=profile).satisfiable
        )
        for path in paths
    }


def optimum_pair(scenario: Scenario, jobs: int = 2) -> dict:
    """Generation optimum (feasible, min borders) — eager vs lazy."""
    from repro.tasks.generation import generate_layout

    out = {}
    for mode, lazy in (("eager", False), ("lazy", True)):
        result = generate_layout(
            scenario.discretize(), scenario.schedule, scenario.r_t_min,
            lazy=lazy, parallel=1,
        )
        out[mode] = {
            "feasible": bool(result.satisfiable),
            "cost": result.objective_value,
        }
    return out


@dataclass
class FuzzRecord:
    """One fuzzed scenario and what every path said about it."""

    seed: int
    name: str
    headroom: int
    trains: int
    tracks: int
    verdicts: dict = field(default_factory=dict)
    optima: dict | None = None
    verdicts_agree: bool = True
    optima_agree: bool = True
    shrink_steps: int = 0
    reproducer: str | None = None

    @property
    def agree(self) -> bool:
        return self.verdicts_agree and self.optima_agree


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`."""

    seed: int
    count: int
    records: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def disagreements(self) -> list:
        return [r for r in self.records if not r.agree]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "records": [asdict(r) for r in self.records],
            "metrics": self.metrics,
        }


def fuzz_scenario(run_seed: int, index: int,
                  max_trains: int = 3, max_loops: int = 1) -> Scenario:
    """The ``index``-th scenario of fuzz run ``run_seed``.

    Specs are sampled then clamped to the fuzz size profile, and a
    seed-drawn deadline headroom in ``[0, 3]`` mixes SAT and UNSAT
    verdicts across the run.
    """
    import dataclasses

    scenario_seed = run_seed * 1000 + index
    spec = ScenarioSpec.sampled(scenario_seed, max_trains=max_trains)
    spec = dataclasses.replace(
        spec,
        loops=min(spec.loops, max_loops),
        corridor_tracks=min(spec.corridor_tracks, 2),
    )
    rng = random.Random(f"fuzz-headroom-{run_seed}-{index}")
    headroom = rng.randint(0, 3)
    scenario = with_headroom(generate_scenario(spec), headroom)
    scenario.meta["fuzz"] = {"run_seed": run_seed, "index": index,
                             "headroom": headroom}
    return scenario


def shrink(scenario: Scenario, still_failing, max_checks: int = 24,
           ) -> tuple[Scenario, int]:
    """Greedily minimise a disagreeing scenario.

    Tries dropping one train at a time, then blocking one track at a
    time, keeping any candidate for which ``still_failing`` holds;
    repeats until a full pass makes no progress or ``max_checks``
    candidate evaluations are spent.  Returns the smallest still-failing
    scenario and the number of successful shrink steps.
    """
    steps = 0
    checks = 0
    progress = True
    while progress and checks < max_checks:
        progress = False
        if len(scenario.schedule.runs) > 1:
            for run in list(scenario.schedule.runs):
                kept = [
                    r for r in scenario.schedule.runs if r is not run
                ]
                candidate = scenario.with_schedule(
                    Schedule(kept, scenario.schedule.duration_min),
                    note=f"shrink:drop-train:{run.train.name}",
                )
                checks += 1
                if still_failing(candidate):
                    scenario = candidate
                    steps += 1
                    progress = True
                    break
                if checks >= max_checks:
                    break
        if progress or checks >= max_checks:
            continue
        for track in sorted(scenario.network.tracks):
            try:
                candidate = blocked_track(scenario, track)
            except DisruptionError:
                continue
            checks += 1
            if still_failing(candidate):
                scenario = candidate
                steps += 1
                progress = True
                break
            if checks >= max_checks:
                break
    return scenario, steps


def run_fuzz(
    count: int = 25,
    seed: int = 0,
    jobs: int = 2,
    check_optimum: bool = True,
    out_dir: str | None = None,
    registry: MetricsRegistry | None = None,
    max_trains: int = 3,
    max_loops: int = 1,
    paths: tuple[str, ...] = PATHS,
    log=None,
    profile: bool = False,
) -> FuzzReport:
    """Differentially fuzz ``count`` seeded scenarios across all paths.

    Each scenario's verification verdict must be identical on every
    member of ``paths``; with ``check_optimum``, the generation task's
    optimum must additionally agree between the eager and lazy descents.
    Disagreeing scenarios are shrunk and written to ``out_dir`` as
    reproducer JSON files (``out_dir`` is created on the first failure).
    The whole run is a pure function of ``seed``.  ``profile`` turns on
    the hot-path phase profiler in every solve (attribution is summed
    into the report's ``profile.*`` metrics).
    """
    reg = registry if registry is not None else MetricsRegistry()
    report = FuzzReport(seed=seed, count=count)
    for index in range(count):
        scenario = fuzz_scenario(
            seed, index, max_trains=max_trains, max_loops=max_loops
        )
        reg.inc("scenario.generated")
        record = FuzzRecord(
            seed=seed * 1000 + index,
            name=scenario.name,
            headroom=scenario.meta["fuzz"]["headroom"],
            trains=len(scenario.schedule.runs),
            tracks=len(scenario.network.tracks),
        )
        with trace.span("fuzz.scenario", scenario=scenario.name):
            if profile:
                results = {
                    path: solve_path(scenario, path, jobs, profile=True)
                    for path in paths
                }
                record.verdicts = {
                    path: bool(result.satisfiable)
                    for path, result in results.items()
                }
                for result in results.values():
                    # Sum the additive profile counters across paths;
                    # the throughput gauges (``*_per_s``) are per-run
                    # rates and would not survive summation.
                    reg.absorb_counters({
                        key: value
                        for key, value in result.metrics.items()
                        if key.startswith("profile.")
                        and not key.endswith("_per_s")
                        and isinstance(value, (int, float))
                    })
            else:
                # Late-bound module call: tests inject lying oracles by
                # monkeypatching ``path_verdicts``.
                record.verdicts = path_verdicts(scenario, jobs, paths)
            record.verdicts_agree = len(set(record.verdicts.values())) == 1
            verdict = record.verdicts[paths[0]]
            reg.inc("scenario.verdict.sat" if verdict
                    else "scenario.verdict.unsat")
            if check_optimum:
                record.optima = optimum_pair(scenario, jobs)
                record.optima_agree = (
                    record.optima["eager"] == record.optima["lazy"]
                )
                reg.inc("scenario.optimum_checked")
        if not record.agree:
            reg.inc("scenario.disagreements")
            if log:
                log(f"DISAGREEMENT at seed {record.seed}: "
                    f"{record.verdicts} optima={record.optima}")
            record = _handle_disagreement(
                scenario, record, jobs, check_optimum, out_dir, reg, paths
            )
        obs_events.emit(
            "fuzz.scenario",
            index=index + 1,
            count=count,
            name=scenario.name,
            verdict="SAT" if verdict else "UNSAT",
            agree=record.agree,
        )
        report.records.append(record)
        if log:
            log(f"[{index + 1}/{count}] {scenario.name} "
                f"verdict={'SAT' if verdict else 'UNSAT'} "
                f"agree={record.agree}")
    reg.set("scenario.agreement", float(report.ok))
    report.metrics = reg.as_dict()
    return report


def _handle_disagreement(scenario, record, jobs, check_optimum,
                         out_dir, reg, paths):
    """Shrink a disagreeing scenario and emit its reproducer file."""

    def still_failing(candidate: Scenario) -> bool:
        verdicts = path_verdicts(candidate, jobs, paths)
        if len(set(verdicts.values())) != 1:
            return True
        if check_optimum and record.optima is not None:
            optima = optimum_pair(candidate, jobs)
            return optima["eager"] != optima["lazy"]
        return False

    smallest, steps = shrink(scenario, still_failing)
    record.shrink_steps = steps
    reg.inc("scenario.shrink_steps", steps)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"repro-seed-{record.seed}.json")
        smallest.meta["fuzz"]["verdicts"] = record.verdicts
        # Which kernel build produced the disagreement: a reproducer
        # found under one build may not reproduce under another.
        from repro.sat.kernel import kernel_build

        smallest.meta["fuzz"]["kernel"] = kernel_build()
        with open(path, "w") as handle:
            handle.write(smallest.to_json())
            handle.write("\n")
        record.reproducer = path
    return record


def reproduce(path: str, jobs: int = 2, check_optimum: bool = True,
              paths: tuple[str, ...] = PATHS) -> FuzzRecord:
    """Replay a reproducer file emitted by :func:`run_fuzz`."""
    with open(path) as handle:
        scenario = scenario_from_json(handle.read())
    fuzz_meta = scenario.meta.get("fuzz", {})
    record = FuzzRecord(
        seed=fuzz_meta.get("run_seed", -1),
        name=scenario.name,
        headroom=fuzz_meta.get("headroom", -1),
        trains=len(scenario.schedule.runs),
        tracks=len(scenario.network.tracks),
    )
    record.verdicts = path_verdicts(scenario, jobs, paths)
    record.verdicts_agree = len(set(record.verdicts.values())) == 1
    if check_optimum:
        record.optima = optimum_pair(scenario, jobs)
        record.optima_agree = (
            record.optima["eager"] == record.optima["lazy"]
        )
    return record


def write_report(report: FuzzReport, path: str) -> None:
    """Write a fuzz report as JSON."""
    with open(path, "w") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
