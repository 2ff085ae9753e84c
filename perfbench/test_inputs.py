"""Checks of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for workload in ("design-serial", "gateway-mix"):
        first = json.dumps(workloads.prepare(workload, 5))
        assert first == json.dumps(workloads.prepare(workload, 5))
        assert first != json.dumps(workloads.prepare(workload, 6))


def test_gateway_stream_mix():
    stream = workloads.gateway_stream(5)
    kinds = [request["kind"] for request in stream["requests"]]
    assert len(kinds) == 5 * workloads.GATEWAY_BLOCKS
    # Warm starts only for tasks whose warm path answers correctly.
    for request in stream["requests"]:
        if request["kind"] == "warm":
            assert stream["tasks"][request["scenario"]] != "optimize"
    assert kinds.count("cold") / len(kinds) == 0.2


def test_benchmark_json_names_known_workloads_and_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(
        workloads.WORKLOADS)
    record = {"wall_s": 1.0, "ops": [], "layers": {
        "inclusive": {}, "self": {}, "calls": {}, "counters": {},
        "covered_s": 1.0}}
    produced = set(run.per_layer([record], [record]))
    assert {m["name"] for m in spec["per_layer"]} <= produced
    # Each pass's times scale by its own host-speed probes; the median
    # pass counts, and memory is not scaled.
    slow = 2 * hostspeed.REFERENCE_KERNEL_S
    passes = [{"setup_s": wall / 10, "wall_s": wall, "peak_rss_mb": 1.0,
               "ops": [{"kind": "optimization", "latency_s": wall,
                        "kernel_s": kernel_s}]}
              for wall, kernel_s in ((1.0, slow), (2.0, slow), (3.0, slow))]
    values = run.end_to_end(passes)
    assert {m["name"] for m in spec["end_to_end"]} == set(values)
    assert values["wall_s"] == 1.0
    assert values["setup_s"] == 0.1
    assert values["latency_p50_ms"] == 1000.0
    assert values["peak_rss_mb"] == 1.0
    assert run.end_to_end(passes, scaled=False)["wall_s"] == 2.0


def test_self_time_excludes_child_and_leaf_spans(tmp_path):
    recorder = spans.Recorder(str(tmp_path))
    outer = recorder.enter("opt.descent")
    inner = recorder.enter("sat.search")
    recorder.leaf[0] += 0.25  # add_clause time inside the search
    recorder.exit(inner)
    recorder.leaf[0] += 0.5  # add_clause time directly in the descent
    recorder.exit(outer)
    record = recorder.snapshot()
    search = record["inclusive"]["sat.search"]
    descent = record["inclusive"]["opt.descent"]
    assert record["self"]["sat.search"] == search - 0.25
    assert abs(record["self"]["opt.descent"]
               - (descent - search - 0.5)) < 1e-12
    assert record["inclusive"][spans.LEAF] == 0.75


def test_covered_seconds_merges_overlaps():
    assert spans.covered_seconds([(0, 2), (1, 3), (5, 6)]) == 4
