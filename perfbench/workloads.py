"""Workload inputs and their known answers.

Every input is a pure function of the workload seed (:func:`prepare`), so
two runs with one seed measure identical work.  The parts that cost the
same on every seed (the Table I rows) dominate each design workload; the
seeded parts come from one fixed scenario shape, so their cost varies
little from seed to seed.

Seed :data:`HELD_OUT_SEED` is kept out of tuning: confirm a claimed gain
on it after the claim was made on other seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

#: Two workloads run on demand and are not in ``BENCHMARK.json``:
#: ``table1-full`` (all twelve Table I rows, about a minute) checks every
#: row against EXPERIMENTS.md, and ``table1-optimize`` runs the
#: optimization rows short enough for several passes in one run
#: (:data:`OPTIMIZE_CASES`).  Its times swing too far between runs on a
#: shared 2-CPU host for a bound; search and the descent are also
#: measured on the generation rows of the design workloads.
WORKLOADS = ("table1-optimize", "design-serial", "design-j2", "gateway-mix",
             "table1-full")

#: Confirm claims on this seed; do not tune against it.
HELD_OUT_SEED = 2029

CASES = ("running-example", "simple-layout", "complex-layout",
         "nordlandsbanen")
#: Simple Layout (about 40 s) and Nordlandsbanen (about 11 s) optimization
#: would leave one pass per run, and a run's median would be one sample.
OPTIMIZE_CASES = ("running-example", "complex-layout")

#: Table I as EXPERIMENTS.md reports it: (satisfiable, sections, steps).
TABLE1 = {
    ("running-example", "verification"): (False, 4, None),
    ("running-example", "generation"): (True, 5, 9),
    ("running-example", "optimization"): (True, 7, 7),
    ("simple-layout", "verification"): (False, 10, None),
    ("simple-layout", "generation"): (True, 14, 13),
    ("simple-layout", "optimization"): (True, 14, 13),
    ("complex-layout", "verification"): (False, 22, None),
    ("complex-layout", "generation"): (True, 23, 17),
    ("complex-layout", "optimization"): (True, 24, 15),
    ("nordlandsbanen", "verification"): (False, 48, None),
    ("nordlandsbanen", "generation"): (True, 52, 32),
    ("nordlandsbanen", "optimization"): (True, 58, 30),
}

#: Graded SAT/UNSAT pairs beside the design rows, from at most
#: RAMP_CANDIDATES candidate scenarios.  Their work (clauses plus
#: propagations, which predict a member's time with correlation 0.97)
#: is filled to RAMP_WORK, and one pair may take at most
#: RAMP_MAX_PAIR_WORK: three pairs a seed, taken as they came, cost
#: 0.25 s on one seed and 0.7 s on another.  The ramp climbs to at most
#: RAMP_HEADROOM_MAX slack steps: proving a structurally infeasible
#: candidate UNSAT at every higher headroom cost up to 12 s of
#: preparation.
RAMP_SHAPE = {"loops": 1, "corridor_tracks": 2, "spur_probability": 0.0,
              "trains": 3}
RAMP_CANDIDATES = 12
RAMP_WORK = 20000
RAMP_MAX_PAIR_WORK = 10000
RAMP_HEADROOM_MAX = 4

#: Gateway traffic: small scenarios, so the front door, fingerprinting,
#: the worker pool and IPC dominate.  The client sends blocks of five
#: requests on one new scenario: the scenario (cold), a delta-close copy
#: (warm start), and three exact repeats.  Optimize blocks send a fourth
#: repeat instead of the delta-close copy: a warm-started optimization
#: counts its makespan objective over the cached model's true variables
#: only and answers 0 at this commit.  With one optimize block in six
#: the mix is 20 % cold, 17 % warm and 63 % cache hits.
GATEWAY_SHAPE = {"loops": 1, "corridor_tracks": 1, "spur_probability": 0.0,
                 "trains": 2}
#: One closed-loop client and one task worker, so that one request runs
#: at a time: with two of each, the workers and the process that holds
#: the gateway and the clients contend for the host's two CPUs and the
#: times measure the scheduler, and a request's time could not be scaled
#: by a host speed probed between requests (``hostspeed``).
GATEWAY_WORKERS = 1
GATEWAY_BLOCKS = 80
GATEWAY_HEADROOM = 2
GATEWAY_TASKS = ("verify", "generate", "verify", "generate", "optimize",
                 "generate")
#: Most clauses plus propagations a block's cold request may take, per
#: task: about the 85th percentile of the shape's scenarios.  The
#: slowest cold requests set ``latency_p95_ms``, and without the cap a
#: seed's few heaviest scenarios moved it by 20 % from seed to seed.
GATEWAY_MAX_WORK = {"verify": 8000, "generate": 12000, "optimize": 18000}


def table1_rows(workload: str) -> list[tuple[str, str]]:
    """The Table I rows a workload runs, in order."""
    if workload == "table1-optimize":
        return [(case, "optimization") for case in OPTIMIZE_CASES]
    if workload in ("design-serial", "design-j2"):
        tasks = ("verification", "generation")
    elif workload == "table1-full":
        tasks = ("verification", "generation", "optimization")
    else:
        return []
    return [(case, task) for case in CASES for task in tasks]


def row_answer(result) -> tuple:
    """A task result as the (satisfiable, sections, steps) Table I row."""
    return (result.satisfiable, result.num_sections, result.time_steps)


def gateway_answer(task: str, answer: dict) -> tuple:
    """The fields of a response that must match a direct task call.

    Generation fixes the section count through its optimum; a witness's
    makespan, and the sections of an optimization, may differ between
    equally good models.
    """
    fields = {"verify": ("satisfiable",),
              "generate": ("satisfiable", "objective_value",
                           "num_sections"),
              "optimize": ("satisfiable", "objective_value")}[task]
    return tuple(answer.get(field) for field in fields)


def _work(result) -> int:
    """A task call's work: its clauses plus its propagations."""
    return result.clauses + result.solver_stats.get("propagations", 0)


def _verify_eager(scenario):
    from repro.tasks import verify_schedule

    return verify_schedule(scenario.discretize(), scenario.schedule,
                           scenario.r_t_min, lazy=False)


def _verify_default(scenario_json: str):
    """The result a pass gets: the default (lazy) path on the scenario
    as a pass reads it back."""
    from repro.scenarios import scenario_from_json
    from repro.tasks import verify_schedule

    scenario = scenario_from_json(scenario_json)
    return verify_schedule(scenario.discretize(), scenario.schedule,
                           scenario.r_t_min)


def ramp_pairs(seed: int) -> list[dict]:
    """Graded pairs from :func:`repro.scenarios.ramp_until_flip`.

    Each pair's reference verdicts are the eager serial path's, recorded
    while the ramp searched for the flip.  A pair on which the default
    lazy path disagrees is skipped, so that no operation of a pass fails
    on it: at this commit lazy verification finds a validated plan for
    some members the eager encoding proves infeasible (seed 503 gives
    one).  So is a pair whose members together take more than
    :data:`RAMP_MAX_PAIR_WORK`.  Pairs are added until their work, as
    the pass's default path does it, reaches :data:`RAMP_WORK`.
    """
    from repro.scenarios import ScenarioSpec, generate_scenario
    from repro.scenarios import ramp_until_flip

    rng = random.Random(f"perfbench-ramp-{seed}")
    pairs = []
    work = 0
    for _ in range(RAMP_CANDIDATES):
        sub_seed = rng.randrange(2 ** 31)
        verified = []

        def verify(candidate):
            result = _verify_eager(candidate)
            verified.append((candidate, result))
            return result.satisfiable

        scenario = generate_scenario(ScenarioSpec(seed=sub_seed,
                                                  **RAMP_SHAPE))
        pair = ramp_until_flip(scenario, headroom_max=RAMP_HEADROOM_MAX,
                               verify=verify)
        if not pair.flipped:
            continue
        entries = []
        pair_work = 0
        for label, member in (("sat", pair.sat), ("unsat", pair.unsat)):
            reference = next(r for c, r in verified if c is member)
            entry = {"label": label, "scenario": member.to_json(),
                     "satisfiable": reference.satisfiable}
            result = _verify_default(entry["scenario"])
            if result.satisfiable != entry["satisfiable"]:
                break
            entries.append(entry)
            pair_work += _work(result)
        if len(entries) < 2 or pair_work > RAMP_MAX_PAIR_WORK:
            continue
        pairs.append({
            "name": f"ramp-{sub_seed}",
            "difficulty": pair.difficulty,
            "members": entries,
        })
        work += pair_work
        if work >= RAMP_WORK:
            break
    return pairs


def _relaxed(scenario):
    """``scenario`` with its earliest arrival deadline one step later, or
    None when no deadline can move."""
    from repro.trains.schedule import Schedule

    schedule = scenario.schedule
    timed = [run for run in schedule.runs
             if run.arrival_min is not None
             and run.arrival_min + scenario.r_t_min
             <= schedule.duration_min]
    if not timed:
        return None
    earliest = min(timed, key=lambda run: run.arrival_min)
    runs = [
        replace(run, arrival_min=run.arrival_min + scenario.r_t_min)
        if run is earliest else run
        for run in schedule.runs
    ]
    return scenario.with_schedule(
        Schedule(runs, schedule.duration_min), note="relaxed"
    )


def payload(task: str, scenario_json: str, profile: bool = False) -> dict:
    """The gateway request for ``task`` on a serialised scenario."""
    scenario = json.loads(scenario_json)
    params = {"guarded_arrivals": True}
    if profile:
        params["profile"] = True
    return {
        "task": task,
        "network": scenario["network"],
        "schedule": scenario["schedule"],
        "r_s": scenario["r_s_km"],
        "r_t": scenario["r_t_min"],
        "params": params,
    }


def _direct_answer(task: str, scenario) -> tuple[list, int]:
    """The answer a direct in-process call of ``task`` gives, and the
    call's :func:`_work`."""
    from repro.encoding import EncodingOptions
    from repro.tasks import generate_layout, optimize_schedule
    from repro.tasks import verify_schedule

    call = {"verify": verify_schedule, "generate": generate_layout,
            "optimize": optimize_schedule}[task]
    result = call(scenario.discretize(), scenario.schedule,
                  scenario.r_t_min,
                  options=EncodingOptions(guarded_arrivals=True))
    answer = list(gateway_answer(task, {
        "satisfiable": result.satisfiable,
        "objective_value": result.objective_value,
        "num_sections": result.num_sections,
    }))
    return answer, _work(result)


def gateway_stream(seed: int) -> dict:
    """The client's requests over named scenarios, with the direct
    in-process answer for every distinct request.

    A candidate block whose direct answer raises
    :class:`~repro.tasks.common.SolutionInvalidError` is skipped, so that
    no operation of a pass fails on it: at this commit a lazy
    verification can decode a plan that breaks a rule (gateway seed 2
    gives one).  So is a block whose cold request does more work than
    :data:`GATEWAY_MAX_WORK` allows its task.
    """
    from repro.scenarios import ScenarioSpec, generate_scenario
    from repro.scenarios import with_headroom
    from repro.tasks.common import SolutionInvalidError

    rng = random.Random(f"perfbench-gateway-{seed}")
    scenarios: dict[str, str] = {}
    tasks: dict[str, str] = {}
    references: dict[str, list] = {}
    requests: list[dict] = []
    while len(requests) < 5 * GATEWAY_BLOCKS:
        sub_seed = rng.randrange(2 ** 31)
        task = GATEWAY_TASKS[len(requests) // 5 % len(GATEWAY_TASKS)]
        base = with_headroom(
            generate_scenario(ScenarioSpec(seed=sub_seed, **GATEWAY_SHAPE)),
            GATEWAY_HEADROOM,
        )
        close = _relaxed(base) if task != "optimize" else base
        if close is None:
            continue
        base_name = f"s{sub_seed}"
        second = base_name if close is base else f"{base_name}-relaxed"
        try:
            answer, work = _direct_answer(task, base)
            if work > GATEWAY_MAX_WORK[task]:
                continue
            references[second] = _direct_answer(task, close)[0]
        except SolutionInvalidError:
            continue
        references[base_name] = answer
        for name, scenario in ((base_name, base), (second, close)):
            scenarios[name] = scenario.to_json()
            tasks[name] = task
        requests += [
            {"kind": "cold", "scenario": base_name},
            {"kind": "hit" if close is base else "warm", "scenario": second},
            {"kind": "hit", "scenario": base_name},
            {"kind": "hit", "scenario": second},
            {"kind": "hit", "scenario": base_name},
        ]
    return {"scenarios": scenarios, "tasks": tasks, "requests": requests,
            "references": references}


def prepare(workload: str, seed: int) -> dict:
    """Everything a pass of ``workload`` needs, derived from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs: dict = {"workload": workload, "seed": seed,
                    "rows": table1_rows(workload)}
    if workload in ("design-serial", "design-j2"):
        inputs["pairs"] = ramp_pairs(seed)
    if workload == "gateway-mix":
        inputs["stream"] = gateway_stream(seed)
    return inputs
