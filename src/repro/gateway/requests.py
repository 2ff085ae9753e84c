"""Request parsing and execution for the solve gateway.

This module is the part of the gateway that runs *inside* a pool worker
(and in-process, when the server falls back after a worker crash).  It
turns a JSON request payload into a task call and the task's result
back into a JSON-safe response dict.

Payload shape::

    {"task": "verify" | "generate" | "optimize" | "fuzz",
     "case": "running-example",            # or an inline scenario:
     "network": {...}, "schedule": {...}, "r_s": 1.0, "r_t": 1.0,
     "params": {"strategy": "linear", ...},
     "deadline_s": 30.0,                   # admission + solve budget
     "no_cache": false}

Unknown parameters are rejected (typos must not silently change the
cache key semantics).  Fault-injection fields (``inject``) are honoured
only when ``REPRO_GATEWAY_FAULTS=1`` — the CI chaos job uses them to
kill a worker mid-request or stall past a deadline.
"""

from __future__ import annotations

import os
import time

from repro.casestudies import CaseStudy, all_case_studies
from repro.network.discretize import DiscreteNetwork
from repro.network.io import network_from_json
from repro.tasks import generate_layout, optimize_schedule, verify_schedule
from repro.tasks.result import TaskResult
from repro.trains.io import schedule_from_json
from repro.trains.schedule import Schedule, ScheduleError

TASKS = ("verify", "generate", "optimize", "fuzz")

#: Parameters each task accepts from ``payload["params"]``.
_TASK_PARAMS = {
    "verify": frozenset({
        "parallel", "lazy", "lazy_strategy", "with_proof", "profile",
        "guarded_arrivals",
    }),
    "generate": frozenset({
        "strategy", "parallel", "timeout_s", "lazy", "lazy_strategy",
        "profile", "guarded_arrivals",
    }),
    "optimize": frozenset({
        "strategy", "objective", "refine_arrivals",
        "minimize_borders_secondary", "parallel", "timeout_s", "lazy",
        "lazy_strategy", "profile", "guarded_arrivals",
    }),
    "fuzz": frozenset({
        "count", "seed", "max_trains", "max_loops", "check_optimum",
    }),
}


class RequestError(ValueError):
    """The payload is malformed; the connection stays up."""


def _find_case(name: str) -> CaseStudy:
    for study in all_case_studies():
        if study.name.lower().replace(" ", "-") == name:
            return study
    raise RequestError(f"unknown case study {name!r}")


def parse_scenario(payload: dict) -> tuple[DiscreteNetwork, Schedule, float]:
    """Resolve (discrete network, schedule, r_t) from a request payload."""
    case = payload.get("case")
    if case:
        study = _find_case(str(case))
        return study.discretize(), study.schedule, study.r_t_min
    network = payload.get("network")
    schedule = payload.get("schedule")
    if not network or not schedule:
        raise RequestError(
            "request needs either 'case' or 'network' + 'schedule'"
        )
    r_s = payload.get("r_s")
    r_t = payload.get("r_t")
    if r_s is None or r_t is None:
        raise RequestError("inline scenarios need 'r_s' and 'r_t'")
    import json as _json

    try:
        net = DiscreteNetwork(
            network_from_json(_json.dumps(network)), float(r_s)
        )
        sched = schedule_from_json(_json.dumps(schedule))
    except (KeyError, TypeError, ValueError, ScheduleError) as exc:
        raise RequestError(f"bad inline scenario: {exc}") from exc
    return net, sched, float(r_t)


def _checked_params(payload: dict, task: str) -> dict:
    params = dict(payload.get("params") or {})
    unknown = sorted(set(params) - _TASK_PARAMS[task])
    if unknown:
        raise RequestError(
            f"unknown parameter(s) for {task}: {', '.join(unknown)}"
        )
    return params


def _maybe_inject(payload: dict) -> None:
    """CI chaos hooks, dead unless ``REPRO_GATEWAY_FAULTS=1``."""
    inject = payload.get("inject")
    if not inject or os.environ.get("REPRO_GATEWAY_FAULTS") != "1":
        return
    sleep_s = inject.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    if inject.get("crash"):
        os._exit(13)


def _result_response(task: str, result: TaskResult) -> dict:
    return {
        "ok": True,
        "task": task,
        "satisfiable": result.satisfiable,
        "num_sections": result.num_sections,
        "time_steps": result.time_steps,
        "objective_value": result.objective_value,
        "status": result.status,
        "solve_calls": result.solve_calls,
        "runtime_s": result.runtime_s,
        "warm_started": result.warm_started,
        "model": list(result.model),
        "fingerprint": result.fingerprint,
    }


def execute(
    payload: dict,
    warm: dict | None = None,
    budget_s: float | None = None,
) -> dict:
    """Run one request and return its JSON-safe response.

    ``warm`` is an optional ``{"model": [...], "fingerprint": {...}}``
    hint from the cache (a delta-close result).  ``budget_s`` caps the
    optimisation wall clock; verification runs are not preemptible —
    the server enforces their deadline at admission and around the
    worker instead.
    """
    task = payload.get("task")
    if task not in TASKS:
        raise RequestError(f"unknown task {task!r}; known: {TASKS}")
    _maybe_inject(payload)
    params = _checked_params(payload, task)
    warm_model = list(warm.get("model") or []) if warm else None
    warm_fp = warm.get("fingerprint") if warm else None

    if task == "fuzz":
        from repro.scenarios.fuzz import run_fuzz

        report = run_fuzz(
            count=int(params.get("count", 3)),
            seed=int(params.get("seed", 0)),
            jobs=1,
            check_optimum=bool(params.get("check_optimum", False)),
            max_trains=int(params.get("max_trains", 2)),
            max_loops=int(params.get("max_loops", 1)),
        )
        summary = report.as_dict()
        summary.pop("records", None)  # bulky; verdict + metrics suffice
        return {
            "ok": True,
            "task": task,
            "agree": report.ok,
            "disagreements": len(report.disagreements),
            "report": summary,
        }

    net, schedule, r_t = parse_scenario(payload)
    if params.pop("guarded_arrivals", False):
        # Deadline-independent variable space: cone pruning ignores the
        # arrival deadlines, so every delta-close instance numbers its
        # variables identically and cached models replay across them.
        from repro.encoding.encoder import EncodingOptions

        params["options"] = EncodingOptions(guarded_arrivals=True)
    timeout_s = params.pop("timeout_s", None)
    if budget_s is not None:
        timeout_s = (
            budget_s if timeout_s is None else min(timeout_s, budget_s)
        )
    if task == "verify":
        result = verify_schedule(
            net, schedule, r_t, **params,
            warm_hints=warm_model, warm_fingerprint=warm_fp,
        )
    elif task == "generate":
        result = generate_layout(
            net, schedule, r_t, **params, timeout_s=timeout_s,
            warm_model=warm_model, warm_fingerprint=warm_fp,
        )
    else:
        result = optimize_schedule(
            net, schedule, r_t, **params, timeout_s=timeout_s,
            warm_model=warm_model, warm_fingerprint=warm_fp,
        )
    return _result_response(task, result)
