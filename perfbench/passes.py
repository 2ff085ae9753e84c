"""One pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per pass, with the prepared inputs as
JSON on standard input, so that no pass inherits warm state from an
earlier one.  The script sets up (imports, scenarios, and for
``gateway-mix`` an in-process gateway), then runs the workload's
operations once through the public entry points and
prints one JSON line: the wall-clock time when set-up ended, the pass's
wall time (the sum of its operations' latencies), one record per
operation (latency, host-speed probe, answer, solver counts), peak
memory, and with ``--traced`` the layer spans of :mod:`spans`.

    python3 perfbench/passes.py [--traced] [--spool DIR] \
        [--socket PATH] < inputs.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _counts(result) -> list:
    stats = result.solver_stats
    return [result.solve_calls, stats.get("conflicts", 0),
            stats.get("propagations", 0), stats.get("decisions", 0)]


class SpeedProbes:
    """Host-speed probes between operations (:mod:`hostspeed`).

    Each operation gets ``kernel_s``: the mean of the probes just before
    and just after it, so that a change of host speed during the
    operation counts by half.
    """

    def __init__(self):
        self.before = hostspeed.probe()
        self.pending: list[dict] = []

    def add(self, record: dict) -> None:
        self.pending.append(record)

    def probe(self) -> None:
        """Probe now and stamp the operations since the last probe."""
        after = hostspeed.probe()
        for record in self.pending:
            record["kernel_s"] = (self.before + after) / 2
        self.before, self.pending = after, []


def _timed_op(op_id: str, kind: str, call) -> dict:
    record = {"id": op_id, "kind": kind}
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # reported as a failed operation
        record["latency_s"] = time.perf_counter() - start
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["latency_s"] = time.perf_counter() - start
    record["answer"] = list(workloads.row_answer(result))
    record["counts"] = _counts(result)
    return record


class DesignPass:
    """Table I rows, then the graded pairs, at one parallelism."""

    def __init__(self, inputs: dict, traced: bool):
        import repro.tasks
        from repro.scenarios import scenario_from_json

        self.tasks = repro.tasks
        self.rows = inputs["rows"]
        self.parallel = 2 if inputs["workload"] == "design-j2" else 1
        self.profile = traced
        self.members = []
        for pair in inputs.get("pairs", []):
            for member in pair["members"]:
                scenario = scenario_from_json(member["scenario"])
                self.members.append((
                    f"{pair['name']}/{member['label']}",
                    scenario.discretize(), scenario,
                ))

    def run(self) -> list[dict]:
        calls = []
        for case, task in self.rows:
            kwargs = {"parallel": self.parallel, "profile": self.profile}
            if task == "optimization":
                # As ``repro table1`` runs the row.
                kwargs["minimize_borders_secondary"] = True
            calls.append((f"{case}/{task}", task, functools.partial(
                self.tasks.run_case_task, case, task, **kwargs)))
        for op_id, net, scenario in self.members:
            calls.append((op_id, "pair", functools.partial(
                self.tasks.verify_schedule, net, scenario.schedule,
                scenario.r_t_min, parallel=self.parallel,
                profile=self.profile)))
        ops = []
        probes = SpeedProbes()
        for op_id, kind, call in calls:
            ops.append(_timed_op(op_id, kind, call))
            probes.add(ops[-1])
            probes.probe()
        return ops

    def close(self) -> None:
        pass


class GatewayPass:
    """A closed-loop client against an in-process gateway."""

    def __init__(self, inputs: dict, traced: bool, socket_path: str):
        from repro.gateway import GatewayClient, GatewayConfig
        from repro.gateway import GatewayThread

        stream = inputs["stream"]
        self.requests = stream["requests"]
        self.tasks = stream["tasks"]
        self.payloads = {
            name: workloads.payload(stream["tasks"][name], text,
                                    profile=traced)
            for name, text in stream["scenarios"].items()
        }
        self.client = GatewayClient(socket_path=socket_path,
                                    timeout_s=120.0)
        self.gateway = GatewayThread(GatewayConfig(
            socket_path=socket_path, workers=workloads.GATEWAY_WORKERS,
            cache_entries=256,
        ))
        self.gateway.start()

    def run(self) -> list[dict]:
        from repro.gateway import GatewayError

        out = []
        probes = SpeedProbes()
        for index, request in enumerate(self.requests):
            if request["kind"] == "cold" and index:
                # Every block of requests starts cold: one probe a block.
                probes.probe()
            name = request["scenario"]
            task = self.tasks[name]
            record = {"id": name, "kind": request["kind"], "task": task}
            probes.add(record)
            start = time.perf_counter()
            try:
                response = self.client.request(self.payloads[name])
            except GatewayError as exc:
                record["latency_s"] = time.perf_counter() - start
                record["error"] = str(exc)
                out.append(record)
                continue
            record["latency_s"] = time.perf_counter() - start
            if not response.get("ok"):
                record["error"] = response.get("error", "ok: false")
            record["cached"] = bool(response.get("cached"))
            record["warm_started"] = bool(response.get("warm_started"))
            record["answer"] = list(workloads.gateway_answer(task, response))
            out.append(record)
        probes.probe()
        return out

    def close(self) -> None:
        self.gateway.stop()


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spool", default="")
    parser.add_argument("--socket", default="")
    args = parser.parse_args(argv)
    inputs = json.load(sys.stdin)

    recorder = None
    if args.traced:
        import spans

        recorder = spans.Recorder(args.spool)
        spans.install(recorder)
    if inputs["workload"] == "gateway-mix":
        work = GatewayPass(inputs, args.traced, args.socket)
    else:
        work = DesignPass(inputs, args.traced)
    out = {"setup_end": time.time()}
    try:
        out["ops"] = work.run()
        # One operation at a time, so the pass took the sum of their
        # latencies; the speed probes between operations are left out.
        out["wall_s"] = sum(op["latency_s"] for op in out["ops"])
    finally:
        work.close()
    out["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        import spans

        recorder.merge_spool()
        layers = recorder.snapshot()
        layers["covered_s"] = spans.covered_seconds(layers.pop("roots"))
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
