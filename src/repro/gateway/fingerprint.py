"""Request canonicalisation and cache keys for the solve gateway.

A gateway request names a task plus a scenario (a case-study name, or an
inline network/schedule pair) plus solver parameters.  Two keys are
derived from it:

``exact_key``
    hash of the *semantic* content — task, canonical scenario, and every
    parameter that can change the answer.  Volatile parameters
    (deadlines, parallelism, profiling) are excluded: they change how
    fast the answer arrives, never what it is, so a cached verdict is
    valid across them.

``family_key``
    like the exact key, but with the *negotiable* schedule content
    removed — arrival deadlines and station dwell windows.  Instances
    sharing a family key share network geometry, resolutions, duration
    and train identities, which (deterministic variable allocation)
    means they share a variable numbering: a model cached for one is a
    meaningful — though unverified — hint for another.  The warm-start
    paths re-certify every hinted model clause-by-clause, so a family
    collision can cost time but never correctness.

Canonicalisation sorts nodes, tracks and trains by name and serialises
with sorted keys, so semantically identical payloads with different
JSON ordering hash identically.
"""

from __future__ import annotations

import hashlib
import json

#: Parameters that affect latency/observability but never the verdict.
VOLATILE_PARAMS = frozenset({
    "deadline_s",
    "no_cache",
    "parallel",
    "profile",
    "timeout_s",
})

#: Per-train schedule fields dropped from the family key (the
#: "negotiable" content delta-close instances differ in).
_FAMILY_DROPPED_TRAIN_FIELDS = ("arrival_min",)
_FAMILY_DROPPED_STOP_FIELDS = ("earliest_min", "latest_min")


def canonical_scenario(payload: dict, family: bool = False) -> dict:
    """Order-independent view of the request's scenario.

    With ``family=True`` the negotiable schedule fields are removed as
    well (see module docstring).  Case-study scenarios reduce to their
    name — their content is fixed by the code, so exact and family keys
    coincide for them.
    """
    case = payload.get("case")
    if case:
        return {"case": str(case)}
    network = payload.get("network") or {}
    schedule = payload.get("schedule") or {}
    nodes = sorted(
        (dict(node) for node in network.get("nodes", [])),
        key=lambda node: str(node.get("name")),
    )
    tracks = sorted(
        (dict(track) for track in network.get("tracks", [])),
        key=lambda track: str(track.get("name")),
    )
    trains = []
    for train in sorted(
        (dict(train) for train in schedule.get("trains", [])),
        key=lambda train: str(train.get("name")),
    ):
        if family:
            for field in _FAMILY_DROPPED_TRAIN_FIELDS:
                train.pop(field, None)
            train["stops"] = [
                {
                    key: value for key, value in stop.items()
                    if key not in _FAMILY_DROPPED_STOP_FIELDS
                }
                for stop in train.get("stops", [])
            ]
        trains.append(train)
    return {
        "nodes": nodes,
        "tracks": tracks,
        "stations": network.get("stations", {}),
        "duration_min": schedule.get("duration_min"),
        "trains": trains,
        "r_s": payload.get("r_s"),
        "r_t": payload.get("r_t"),
    }


def _semantic_params(payload: dict) -> dict:
    params = payload.get("params") or {}
    return {
        key: params[key]
        for key in sorted(params)
        if key not in VOLATILE_PARAMS
    }


def _digest(view: dict) -> str:
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()


def exact_key(payload: dict) -> str:
    """Cache key for serving a stored verdict verbatim."""
    return _digest({
        "task": payload.get("task"),
        "scenario": canonical_scenario(payload, family=False),
        "params": _semantic_params(payload),
    })


def family_key(payload: dict) -> str:
    """Cache key for finding warm-start candidates (delta-close match)."""
    return _digest({
        "task": payload.get("task"),
        "scenario": canonical_scenario(payload, family=True),
        "params": _semantic_params(payload),
    })
