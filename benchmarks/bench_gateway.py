"""Gateway economics: cold solve vs cache hit vs delta-close warm-start.

Boots a real in-process gateway (:class:`repro.gateway.GatewayThread`)
and runs the running example's generation task through it three ways:

* **cold** — first request, full descent in a pool worker;
* **cached** — the exact same request again, answered from the
  fingerprint-keyed result cache without touching a worker;
* **warm** — a delta-close request (one arrival deadline relaxed) that
  family-matches the cached entry, so the descent starts from the
  cached model instead of from scratch.

The requests use ``guarded_arrivals`` so the relaxed instance shares
the base instance's variable numbering (the warm-start precondition;
see ``doc/architecture.md`` §9).  The cached hit must be at least
``MIN_CACHED_SPEEDUP``× faster than the cold solve — that bound is the
benchmark's pass/fail verdict — and the warm-started descent must reach
the same optimum as a cold solve of the relaxed instance.

Run via ``make bench-gateway`` (writes ``BENCH_gateway.json``) or::

    PYTHONPATH=src python benchmarks/bench_gateway.py --out out.json
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.casestudies import all_case_studies
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.network.io import network_to_json
from repro.obs.metrics import MetricsRegistry
from repro.trains.io import schedule_to_json

#: The cache hit skips admission-to-worker round trips and the whole
#: descent; anything under 20x means the cache path regressed.
MIN_CACHED_SPEEDUP = 20.0

#: Exact-repeat requests; the best time is the cache-hit latency.
CACHED_REPEATS = 5


def _base_payload() -> dict:
    study = next(
        s for s in all_case_studies() if s.name == "Running Example"
    )
    return {
        "task": "generate",
        "network": json.loads(network_to_json(study.network)),
        "schedule": json.loads(schedule_to_json(study.schedule)),
        "r_s": study.r_s_km,
        "r_t": study.r_t_min,
        "params": {"strategy": "linear", "guarded_arrivals": True},
    }


def _relaxed(payload: dict, by_min: float = 1.0) -> dict:
    close = json.loads(json.dumps(payload))
    train = min(
        (t for t in close["schedule"]["trains"]
         if t.get("arrival_min") is not None),
        key=lambda t: t["arrival_min"],
    )
    train["arrival_min"] = min(
        train["arrival_min"] + by_min, close["schedule"]["duration_min"]
    )
    return close


def _timed(client: GatewayClient, payload: dict) -> tuple[dict, float]:
    start = time.perf_counter()
    response = client.request(payload)
    elapsed = time.perf_counter() - start
    assert response.get("ok"), response
    return response, elapsed


def bench_gateway(reg: MetricsRegistry, socket_path: str) -> bool:
    config = GatewayConfig(
        socket_path=socket_path, workers=1, cache_entries=64,
    )
    base = _base_payload()
    relaxed = _relaxed(base)
    with GatewayThread(config), \
            GatewayClient(socket_path=socket_path) as client:
        cold, cold_s = _timed(client, base)
        assert not cold.get("cached") and not cold["warm_started"]

        cached_s = None
        for __ in range(CACHED_REPEATS):
            cached, elapsed = _timed(client, base)
            assert cached.get("cached"), cached
            cached_s = elapsed if cached_s is None else min(
                cached_s, elapsed
            )

        warm, warm_s = _timed(client, relaxed)
        assert warm["warm_started"] and not warm.get("cached"), warm

        # Fair cold reference for the warm speedup: the same relaxed
        # instance with the cache bypassed entirely.
        cold_relaxed, cold_relaxed_s = _timed(
            client, {**relaxed, "no_cache": True}
        )
        assert not cold_relaxed["warm_started"]
        assert warm["objective_value"] == cold_relaxed["objective_value"]

    speedup_cached = cold_s / cached_s
    speedup_warm = cold_relaxed_s / warm_s
    reg.set("bench.gateway.cold_s", round(cold_s, 4))
    reg.set("bench.gateway.cached_s", round(cached_s, 6))
    reg.set("bench.gateway.warm_s", round(warm_s, 4))
    reg.set("bench.gateway.cold_relaxed_s", round(cold_relaxed_s, 4))
    reg.set("bench.gateway.speedup_cached", round(speedup_cached, 1))
    reg.set("bench.gateway.speedup_warm", round(speedup_warm, 3))
    reg.set("bench.gateway.cold_solve_calls", cold["solve_calls"])
    reg.set("bench.gateway.warm_solve_calls", warm["solve_calls"])
    reg.set("bench.gateway.objective", cold["objective_value"])
    passed = speedup_cached >= MIN_CACHED_SPEEDUP
    reg.set("bench.gateway.cached_speedup_ok", passed)
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_gateway.json",
                        help="output JSON path (MetricsRegistry format)")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="bench history JSONL to append to "
                             "('' disables)")
    args = parser.parse_args(argv)

    reg = MetricsRegistry()
    reg.set("bench.host_cpus", os.cpu_count())
    socket_path = f"bench-gateway-{os.getpid()}.sock"
    try:
        passed = bench_gateway(reg, socket_path)
    finally:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    summary = reg.as_dict()
    print(f"cold {summary['bench.gateway.cold_s']}s, "
          f"cached {summary['bench.gateway.cached_s']}s "
          f"({summary['bench.gateway.speedup_cached']}x), "
          f"warm {summary['bench.gateway.warm_s']}s vs cold "
          f"{summary['bench.gateway.cold_relaxed_s']}s "
          f"({summary['bench.gateway.speedup_warm']}x), "
          f"{'PASS' if passed else 'FAIL'} "
          f"(cached >= {MIN_CACHED_SPEEDUP}x required)")
    reg.write_json(args.out)
    print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        append_history("gateway", reg.as_dict(), path=args.history)
        print(f"history -> {args.history}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
