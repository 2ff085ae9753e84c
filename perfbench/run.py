"""Table I end-to-end benchmark with a per-layer breakdown.

Runs the paper's three tasks through their public entry points
(``repro.tasks``, ``run_case_task``, ``GatewayThread`` + ``GatewayClient``)
on one workload, checks every answer, and prints the metrics named in
``BENCHMARK.json``::

    python3 perfbench/run.py --workload design-serial --seed 1 \
        --seconds 25 --trace 0

Run it from the repository root.  It prepares the workload's inputs from
the seed (outside every timed region), then runs passes — each in a fresh
interpreter, see ``passes.py`` — until ``--seconds`` have been measured
and at least :data:`MIN_PASSES` passes ran.  With ``--trace 1`` passes
alternate between
untraced and traced (layer spans from ``spans.py``); the per-layer
metrics come from the traced passes and the tracing overhead is the
difference of the two kinds' median wall times.  End-to-end times are
medians over the run's passes, each operation's time scaled to the speed
of an uncontended host by a probe taken beside it (``hostspeed.py``,
:func:`end_to_end`); the report prints them as measured too.

Every human-readable line goes before the last line, which is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong
answer, an exception, an ``ok: false`` response or a serial operation
whose solver counts differ between passes counts as failed and makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

#: Every run makes at least this many passes: times are the median of
#: them, and serial solver counts are compared across them.
MIN_PASSES = 3
#: No pass starts once the run could then overrun this many seconds.
RUN_CAP_S = 165.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def provenance(workload: str, seed: int) -> dict:
    """What the numbers were measured on; never compare across builds."""
    from repro.sat import kernel_build

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        sha = probe.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "host_cpus": os.cpu_count(),
        "kernel_build": kernel_build(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_child(inputs_text: str, run_dir: str, index: int, traced: bool,
              timeout_s: float) -> dict:
    """Start one ``passes.py`` process and return its JSON record."""
    spool = os.path.join(run_dir, f"spool-{index}")
    os.makedirs(spool)
    command = [sys.executable, os.path.join(HERE, "passes.py"),
               "--spool", spool,
               "--socket", os.path.relpath(
                   os.path.join(run_dir, f"gw-{index}.sock"), ROOT)]
    if traced:
        command.append("--traced")
    spawned = time.time()
    proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(inputs_text, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass exceeded {timeout_s:.0f}s", "traced": traced}
    finally:
        # Workers a pass forked share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return {"error": f"pass exited {proc.returncode}: "
                         + " | ".join(tail), "traced": traced}
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_end"] - spawned
    record["traced"] = traced
    return record


def check_ops(inputs: dict, references: dict, ops: list[dict]) -> list[str]:
    """Every wrong or failed operation, as a message."""
    import workloads

    expected = {f"{case}/{task}": list(workloads.TABLE1[(case, task)])
                for case, task in inputs["rows"]}
    for pair in inputs.get("pairs", []):
        for member in pair["members"]:
            expected[f"{pair['name']}/{member['label']}"] = [
                member["satisfiable"]]
    for name, answer in references.items():
        expected[name] = answer
    problems = []
    for op in ops:
        if "error" in op:
            problems.append(f"{op['id']}: {op['error']}")
            continue
        want = expected[op["id"]]
        got = op["answer"][:len(want)]
        if got != want:
            problems.append(f"{op['id']}: got {got}, expected {want}")
    return problems


def count_drift(passes: list[dict]) -> list[str]:
    """Serial operations whose solver counts differ between passes."""
    seen: dict[str, set] = {}
    for record in passes:
        for op in record.get("ops", []):
            if "counts" in op:
                seen.setdefault(op["id"], set()).add(tuple(op["counts"]))
    return [f"{op_id}: {sorted(counts)}"
            for op_id, counts in sorted(seen.items()) if len(counts) > 1]


def _op_seconds(op: dict, scaled: bool) -> float:
    return op["latency_s"] * (hostspeed.scale(op["kernel_s"]) if scaled
                              else 1.0)


def _median_wall(passes: list[dict], scaled: bool) -> float:
    """Median over ``passes`` of the sum of a pass's operation times."""
    return _median([sum(_op_seconds(op, scaled) for op in record["ops"])
                    for record in passes])


def end_to_end(passes: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics of the untraced passes.

    With ``scaled``, every operation's time is scaled by the mean of the
    host-speed probes just before and after it (:mod:`hostspeed`), and
    set-up by the pass's first, so that the times read as on an uncontended
    host.  Each time is the median over the passes: ``setup_s``,
    ``wall_s`` (the sum of a pass's operations), and the latency of each
    operation, whose percentiles are over the requests a user waits on:
    Table I rows and gateway requests.  The graded pairs, a batch, count
    in ``wall_s`` only.  Every pass runs the same operations in the same
    order.
    """
    latencies = [_median([_op_seconds(op, scaled) for op in same])
                 for same in zip(*[record["ops"] for record in passes])
                 if same[0]["kind"] != "pair"]
    setups = [record["setup_s"] * (
        hostspeed.scale(record["ops"][0]["kernel_s"]) if scaled else 1.0)
        for record in passes]
    return {
        "setup_s": _median(setups),
        "wall_s": _median_wall(passes, scaled),
        "latency_p50_ms": 1000.0 * _median(latencies),
        "latency_p95_ms": 1000.0 * _percentile(latencies, 95),
        "peak_rss_mb": _median([record["peak_rss_mb"]
                                for record in passes]),
    }


def pass_layers(record: dict) -> dict:
    """Per-layer values of one traced pass (all names, report and JSON)."""
    layers = record["layers"]
    inclusive, own = layers["inclusive"], layers["self"]
    calls, counters = layers["calls"], layers["counters"]
    ops = record["ops"]
    values = {
        "encoding.build_s": inclusive.get("encoding.build", 0.0),
        "encoding.decode_validate_s":
            inclusive.get("encoding.decode_validate", 0.0),
        "encoding.lazy_refine_s": inclusive.get("encoding.lazy_refine", 0.0),
        "logic.totalizer_s": inclusive.get("logic.totalizer", 0.0),
        "sat.load_s": inclusive.get("sat.load", 0.0),
        "sat.search_s": inclusive.get("sat.search", 0.0),
        "opt.descent_s": inclusive.get("opt.descent", 0.0),
        "opt.self_s": own.get("opt.descent", 0.0),
        "pool.start_s": inclusive.get("pool.start", 0.0),
        "pool.probe_s": inclusive.get("pool.probe", 0.0),
        "pool.race_s": inclusive.get("pool.race", 0.0),
        "trace.uncovered_s": record["wall_s"] - layers["covered_s"],
    }
    for name in ("encoding.vars", "encoding.clauses", "encoding.lazy_rounds",
                 "encoding.lazy_clauses_added", "sat.propagations",
                 "sat.conflicts", "sat.decisions", "sat.minimized_literals",
                 "sat.learned_literals", "sat.propagate_s", "sat.analyze_s",
                 "sat.decide_s", "opt.probes", "pool.probes",
                 "pool.clauses_shipped"):
        values[name] = counters.get(name, 0)
    values["pool.failures"] = (counters.get("pool.fallbacks", 0)
                               + counters.get("pool.worker_crashes", 0))
    search = values["sat.search_s"]
    values["sat.props_per_s"] = (
        values["sat.propagations"] / search if search else 0.0)
    for task in ("verify", "generate", "optimize"):
        values[f"tasks.{task}_s"] = inclusive.get(f"tasks.{task}", 0.0)
    layer_self: dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer, seconds in layer_self.items():
        values[f"self.{layer}_s"] = seconds
    for op in ops:
        if "/" in op["id"] and op["id"].split("/")[1] in (
                "verification", "generation", "optimization"):
            case, task = op["id"].split("/")
            values[f"tasks.{case}.{task}_s"] = op["latency_s"]
    gateway_ops = [op for op in ops if "cached" in op]
    if gateway_ops:
        def median_ms(selected):
            return 1000.0 * _median([op["latency_s"] for op in selected])

        hits = [op for op in gateway_ops if op["cached"]]
        warm = [op for op in gateway_ops if op["kind"] == "warm"]
        values["gateway.hit_ms"] = median_ms(hits)
        values["gateway.cold_ms"] = median_ms(
            [op for op in gateway_ops if op["kind"] == "cold"])
        values["gateway.warm_ms"] = median_ms(warm)
        values["gateway.fingerprint_ms"] = (
            1000.0 * inclusive.get("gateway.fingerprint", 0.0)
            / len(gateway_ops))
        runs = calls.get("gateway.worker", 0) or 1
        values["gateway.queue_wait_ms"] = (
            1000.0 * own.get("gateway.pool_run", 0.0) / runs)
        values["gateway.worker_ms"] = (
            1000.0 * inclusive.get("gateway.worker", 0.0) / runs)
        values["gateway.cache_hit_ratio"] = len(hits) / len(gateway_ops)
        values["gateway.warm_accept_ratio"] = (
            sum(op["warm_started"] for op in warm) / len(warm)
            if warm else 0.0)
    else:
        values["gateway.cache_hit_ratio"] = 0.0
        values["gateway.warm_accept_ratio"] = 0.0
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    rows = [pass_layers(record) for record in traced]
    names = sorted({name for row in rows for name in row})
    values = {name: _median([row.get(name, 0.0) for row in rows])
              for name in names}
    values["trace.overhead_s"] = (_median_wall(traced, True)
                                  - _median_wall(untraced, True))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM ends the run through the ``finally`` blocks, which kill
    # the running pass and its workers and remove the run directory.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no repro sources under src/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    begin = time.monotonic()
    stamp = provenance(args.workload, args.seed)
    print("provenance " + json.dumps(stamp, sort_keys=True))

    prep_start = time.perf_counter()
    inputs = workloads.prepare(args.workload, args.seed)
    references = inputs.get("stream", {}).get("references", {})
    prep_s = time.perf_counter() - prep_start
    inputs_text = json.dumps(inputs)

    os.makedirs(RUN_DIR, exist_ok=True)
    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(run_dir)
    passes: list[dict] = []
    try:
        measure_until = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            remaining = RUN_CAP_S - (time.monotonic() - begin)
            started = time.monotonic()
            record = run_child(inputs_text, run_dir, len(passes), traced,
                               max(remaining, 1.0))
            longest = max(longest, time.monotonic() - started)
            passes.append(record)
            if "error" in record:
                break
            if time.monotonic() - begin + longest > RUN_CAP_S:
                break
            if (len(passes) >= MIN_PASSES
                    and time.monotonic() >= measure_until):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass

    broken = [record["error"] for record in passes if "error" in record]
    good = [record for record in passes if "error" not in record]
    ops = [op for record in good for op in record["ops"]]
    # Portfolio races may end on either member, so only serial
    # operations must repeat their counts exactly.
    drift = count_drift(good) if args.workload != "design-j2" else []
    problems = (broken + check_ops(inputs, references, ops)
                + [f"count drift {line}" for line in drift])
    untraced = [record for record in good if not record["traced"]]
    traced_passes = [record for record in good if record["traced"]]

    attempted = max(len(ops), 1)
    failed = min(len(problems), attempted)
    print(f"workload {args.workload} seed {args.seed}: {len(good)} passes "
          f"({len(traced_passes)} traced), {len(ops)} operations, "
          f"prep {prep_s:.2f} s")
    for index, record in enumerate(good):
        probes = [op["kernel_s"] for op in record["ops"]]
        print(f"pass {index} {'traced' if record['traced'] else 'untraced'}"
              f": setup {record['setup_s']:.4f} s, wall "
              f"{record['wall_s']:.4f} s (scaled "
              f"{sum(_op_seconds(op, True) for op in record['ops']):.4f}"
              " s), host-speed probe median "
              f"{1000 * _median(probes):.3f} ms, range "
              f"{1000 * min(probes):.3f}-{1000 * max(probes):.3f} ms "
              f"(reference {1000 * hostspeed.REFERENCE_KERNEL_S:.3f} ms)")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")

    metrics: dict = {}
    if untraced and (traced_passes or not args.trace):
        if args.trace:
            values = per_layer(traced_passes, untraced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in sorted(values.items()):
                tag = "" if name in units else "  (report only)"
                print(f"layer {name} {value:.6g}{tag}")
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in units.items()}
        else:
            values = end_to_end(untraced, scaled=True)
            measured = end_to_end(untraced, scaled=False)
            for m in spec["end_to_end"]:
                print(f"{m['name']} {values[m['name']]:.6g} {m['unit']} "
                      f"(measured {measured[m['name']]:.6g})")
            if "stream" in inputs:
                # A fixed request count per pass: wall_s in other units.
                requests = len(untraced[0]["ops"])
                print(f"requests_per_s {requests / measured['wall_s']:.6g}"
                      " 1/s (measured)")
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
