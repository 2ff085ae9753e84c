"""Command-line interface.

Run the paper's design tasks from the shell::

    python -m repro list
    python -m repro verify   --case running-example
    python -m repro generate --case simple-layout --strategy binary
    python -m repro optimize --case running-example --min-borders
    python -m repro table1 [--skip-slow]

Custom networks can be given as JSON (see :mod:`repro.network.io`) with the
schedule described inline via repeated ``--train`` options::

    python -m repro verify --network net.json --r-s 0.5 --r-t 1 \\
        --duration 20 --train "1,A,B,120,400,0,10"
"""

from __future__ import annotations

import argparse
import sys

from repro.casestudies import all_case_studies, case_study
from repro.network.discretize import DiscreteNetwork
from repro.network.io import load_network
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt import CheckpointError
from repro.tasks import generate_layout, optimize_schedule, verify_schedule
from repro.trains.schedule import Schedule, ScheduleError, TrainRun
from repro.trains.train import Train
from repro.viz import (
    format_table1,
    format_task_result,
    render_layout,
    render_spacetime,
)


def _parse_train(spec: str) -> TrainRun:
    """Parse "name,start,goal,speed_kmh,length_m,dep_min,arr_min|-"."""
    parts = spec.split(",")
    if len(parts) != 7:
        raise SystemExit(
            f"bad --train {spec!r}: expected "
            "name,start,goal,speed,length,departure,arrival"
        )
    name, start, goal, speed, length, dep, arr = (p.strip() for p in parts)
    try:
        return TrainRun(
            Train(name, length_m=float(length), max_speed_kmh=float(speed)),
            start=start,
            goal=goal,
            departure_min=float(dep),
            arrival_min=None if arr in ("-", "") else float(arr),
        )
    except (ValueError, ScheduleError) as exc:
        raise SystemExit(f"bad --train {spec!r}: {exc}") from exc


def _scenario(args) -> tuple[DiscreteNetwork, Schedule, float]:
    """Resolve (discrete network, schedule, r_t) from CLI arguments."""
    if args.case:
        try:
            study = case_study(args.case)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        return study.discretize(), study.schedule, study.r_t_min
    if not args.network:
        raise SystemExit("either --case or --network is required")
    if not args.train and not args.schedule:
        raise SystemExit(
            "--network requires at least one --train or a --schedule file"
        )
    network = load_network(args.network)
    net = DiscreteNetwork(network, args.r_s)
    try:
        if args.schedule:
            from repro.trains.io import load_schedule

            schedule = load_schedule(args.schedule)
        else:
            schedule = Schedule(
                [_parse_train(t) for t in args.train], args.duration
            )
    except ScheduleError as exc:
        raise SystemExit(str(exc)) from exc
    return net, schedule, args.r_t


def _report(result, net, show_diagram: bool, show_timetable: bool,
            r_t_min: float) -> None:
    print(format_task_result(result))
    if result.solution is None:
        return
    print()
    print(render_layout(result.solution.layout))
    if show_diagram:
        print()
        print(render_spacetime(net, result.solution))
    if show_timetable:
        from repro.viz import render_timetable

        print()
        print(render_timetable(net, result.solution, r_t_min))


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", help="named case study (see `list`)")
    parser.add_argument("--network", help="network JSON file")
    parser.add_argument("--r-s", type=float, default=0.5,
                        help="spatial resolution in km (with --network)")
    parser.add_argument("--r-t", type=float, default=1.0,
                        help="temporal resolution in min (with --network)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="scenario duration in min (with --network)")
    parser.add_argument("--train", action="append", default=[],
                        help="train spec: "
                             "name,start,goal,speed,length,dep,arr")
    parser.add_argument("--schedule", help="schedule JSON file "
                        "(alternative to --train/--duration)")
    parser.add_argument("--diagram", action="store_true",
                        help="print the space-time occupancy diagram")
    parser.add_argument("--timetable", action="store_true",
                        help="print the per-train station timetable")


def _add_jobs_arg(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        metavar="N", help=help_text)


def _add_anytime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, metavar="S", default=None,
                        help="wall-clock budget in seconds; on expiry the "
                             "best solution found so far is reported "
                             "(status: timeout)")
    parser.add_argument("--checkpoint", metavar="FILE", default=None,
                        help="append the descent's proven facts to a JSONL "
                             "checkpoint as they are found; --resume "
                             "needs the same --strategy")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed run from --checkpoint "
                             "instead of starting over")


def _run_descent_task(args: argparse.Namespace, net, schedule, r_t):
    """Run ``generate`` or ``optimize``; a checkpoint that belongs to
    another descent ends the run with its mismatch, not a traceback."""
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    common = dict(
        strategy=args.strategy, parallel=args.jobs, timeout_s=args.timeout,
        checkpoint_path=args.checkpoint, resume=args.resume,
        lazy=args.lazy, lazy_strategy=args.lazy_strategy,
        profile=args.profile,
    )
    try:
        if args.command == "generate":
            return generate_layout(net, schedule, r_t, **common)
        return optimize_schedule(
            net, schedule, r_t,
            minimize_borders_secondary=args.min_borders,
            objective=args.objective, **common,
        )
    except CheckpointError as exc:
        raise SystemExit(
            f"cannot resume from {args.checkpoint}: {exc}"
        ) from exc


def _add_lazy_strategy_arg(parser: argparse.ArgumentParser,
                           default: str | None = None) -> None:
    from repro.encoding.lazy import DEFAULT_LAZY_STRATEGY

    default = default or DEFAULT_LAZY_STRATEGY
    parser.add_argument("--lazy-strategy", metavar="G/S",
                        default=default,
                        help="CEGAR clause-selection cell "
                             "<violation|pair|family>/<all|first-k> "
                             f"(default {default}; only "
                             "meaningful with the lazy encoder)")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="record a span trace (.jsonl = JSON Lines, "
                             ".json = Chrome trace for Perfetto)")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the run's metrics registry as JSON")
    parser.add_argument("--events", metavar="FILE",
                        help="record the structured event stream "
                             "(restarts, refinement rounds, bound "
                             "improvements, checkpoint writes, deadline "
                             "hits, worker crashes) as JSON Lines")
    parser.add_argument("--live", action="store_true",
                        help="render a live single-line progress summary "
                             "on stderr while the run is in flight")
    parser.add_argument("--profile", action="store_true",
                        help="attribute solver time to the CDCL phases "
                             "(propagate/analyze/backtrack/decide/"
                             "restart) via low-overhead sampling; "
                             "see `repro top`")


def _write_trace(tracer: trace.Tracer, path: str) -> None:
    records = tracer.export()
    if path.endswith(".jsonl"):
        trace.write_jsonl(records, path)
    else:
        trace.write_chrome_trace(records, path)
    print(f"trace: {len(records)} spans -> {path}", file=sys.stderr)


def _write_metrics(metrics: dict, path: str) -> None:
    reg = MetricsRegistry()
    reg.merge_dict(metrics)
    reg.write_json(path)
    print(f"metrics: {len(metrics)} keys -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcs-l3",
        description="Automatic design & verification for ETCS Level 3 "
        "(reproduction of Wille et al., DATE 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in case studies")

    verify = sub.add_parser("verify", help="verify a schedule on pure TTDs")
    _add_scenario_args(verify)
    _add_jobs_arg(verify, "race the solve over N processes: the serial "
                          "solver plus N-1 forked helpers with diversified "
                          "configurations.  --proof solves in this process "
                          "at any N; the proof check dominates its time")
    _add_obs_args(verify)
    verify.add_argument("--lazy", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="defer cross-train constraints to the CEGAR "
                             "refinement loop, adding only violated "
                             "instances (default on; --no-lazy forces the "
                             "eager encoder; --proof implies eager)")
    _add_lazy_strategy_arg(verify)
    verify.add_argument("--proof", action="store_true",
                        help="back UNSAT verdicts with a checked DRAT "
                             "proof (eager, solved in this process)")
    verify.add_argument("--explain", action="store_true",
                        help="on UNSAT, diagnose which trains' commitments "
                             "conflict")

    generate = sub.add_parser("generate", help="generate a minimal VSS layout")
    _add_scenario_args(generate)
    _add_jobs_arg(generate, "race each descent solve over N portfolio "
                            "processes")
    generate.add_argument("--strategy", default="core",
                          choices=["linear", "binary", "core"],
                          help="descent: core-guided search from below "
                               "(default), or a linear or binary "
                               "descent on a totalizer bound from above")
    generate.add_argument("--lazy", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="defer cross-train constraints to the CEGAR "
                               "refinement loop (default off for descents)")
    from repro.encoding.lazy import DESCENT_LAZY_STRATEGY
    _add_lazy_strategy_arg(generate, default=DESCENT_LAZY_STRATEGY)
    _add_anytime_args(generate)
    _add_obs_args(generate)

    optimize = sub.add_parser("optimize",
                              help="optimize the schedule makespan")
    _add_scenario_args(optimize)
    _add_jobs_arg(optimize, "race each descent solve over N portfolio "
                            "processes")
    optimize.add_argument("--strategy", default="linear",
                          choices=["linear", "binary", "core"])
    optimize.add_argument("--min-borders", action="store_true",
                          help="secondarily minimise VSS borders")
    optimize.add_argument("--objective", default="makespan",
                          choices=["makespan", "total-arrival"],
                          help="efficiency reading (paper §III-C)")
    optimize.add_argument("--lazy", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="defer cross-train constraints to the CEGAR "
                               "refinement loop (default off for descents)")
    _add_lazy_strategy_arg(optimize, default=DESCENT_LAZY_STRATEGY)
    _add_anytime_args(optimize)
    _add_obs_args(optimize)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table I")
    table1.add_argument("--skip-slow", action="store_true",
                        help="only the Running Example and Simple Layout")
    _add_jobs_arg(table1, "run the table rows as a batch over N processes")
    table1.add_argument("--manifest", metavar="FILE", default=None,
                        help="record finished rows to a JSONL manifest; "
                             "re-running with the same file skips them")
    table1.add_argument("--job-timeout", type=float, metavar="S",
                        default=None,
                        help="wall-clock budget per table row")
    _add_obs_args(table1)

    report = sub.add_parser(
        "report", help="render a human-readable run report from "
                       "--trace/--metrics files"
    )
    report.add_argument("--trace", metavar="FILE",
                        help="span trace (JSONL) written by --trace")
    report.add_argument("--metrics", metavar="FILE",
                        help="metrics JSON written by --metrics, or a "
                             "fuzz-report artifact (fuzz --report)")
    report.add_argument("--export-chrome", metavar="FILE",
                        help="additionally convert the trace to Chrome "
                             "trace JSON (open in Perfetto)")

    top = sub.add_parser(
        "top", help="render the hot-path phase attribution table from a "
                    "--metrics file of a --profile run"
    )
    top.add_argument("--metrics", metavar="FILE", required=True,
                     help="metrics JSON written by a --profile run")

    trend = sub.add_parser(
        "trend", help="render per-key performance trajectories from a "
                      "BENCH_HISTORY.jsonl file (benchmarks/history.py)"
    )
    trend.add_argument("--history", metavar="FILE",
                       default="BENCH_HISTORY.jsonl",
                       help="bench history JSONL "
                            "(default BENCH_HISTORY.jsonl)")
    trend.add_argument("--bench", metavar="NAME", default=None,
                       help="restrict to one benchmark name")
    trend.add_argument("--key", action="append", default=[],
                       metavar="FRAGMENT",
                       help="restrict to metric keys containing FRAGMENT "
                            "(repeatable)")
    trend.add_argument("--last", type=int, default=20, metavar="N",
                       help="trajectory window: the N most recent runs "
                            "(default 20)")

    export = sub.add_parser(
        "export", help="export a scenario's CNF encoding as DIMACS"
    )
    _add_scenario_args(export)
    export.add_argument("--output", required=True, help="DIMACS output file")
    export.add_argument("--pin-pure-ttd", action="store_true",
                        help="pin the pure TTD layout (verification instance)")

    fuzz = sub.add_parser(
        "fuzz", help="differentially fuzz random scenarios across the "
                     "eager/lazy/service solver paths"
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="run seed; the whole run (scenarios, verdicts, "
                           "records) is a pure function of it")
    fuzz.add_argument("--count", type=int, default=25, metavar="N",
                      help="number of scenarios to generate (default 25)")
    fuzz.add_argument("-j", "--jobs", type=int, default=2, metavar="N",
                      help="solver-service processes for the racing "
                           "path (default 2)")
    fuzz.add_argument("--no-optimum", dest="check_optimum",
                      action="store_false",
                      help="skip the eager-vs-lazy generation-optimum "
                           "cross-check (verdicts only; faster)")
    fuzz.add_argument("--max-trains", type=int, default=3,
                      help="fleet-size cap for sampled scenarios")
    fuzz.add_argument("--max-loops", type=int, default=1,
                      help="passing-loop cap for sampled scenarios")
    fuzz.add_argument("--out", metavar="DIR", default="fuzz-failures",
                      help="directory for reproducer files of shrunk "
                           "disagreements (created on first failure)")
    fuzz.add_argument("--report", metavar="FILE", default=None,
                      help="write the full fuzz report as JSON")
    fuzz.add_argument("--reproduce", metavar="FILE", default=None,
                      help="replay one reproducer JSON instead of fuzzing")
    _add_obs_args(fuzz)

    serve = sub.add_parser(
        "serve", help="run the always-on solve gateway (persistent "
                      "workers + fingerprint-keyed result cache)"
    )
    serve.add_argument("--socket", metavar="PATH",
                       default="repro-gateway.sock",
                       help="unix socket to listen on "
                            "(default repro-gateway.sock)")
    serve.add_argument("--http", type=int, metavar="PORT", default=None,
                       help="additionally serve HTTP/JSON on "
                            "127.0.0.1:PORT (POST /solve, GET /status)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="persistent solve workers (default 2)")
    serve.add_argument("--cache", type=int, default=256, metavar="N",
                       help="result-cache capacity in entries "
                            "(default 256)")
    serve.add_argument("--max-inflight", type=int, default=2, metavar="N",
                       help="requests solved concurrently (default 2)")
    serve.add_argument("--max-queue", type=int, default=8, metavar="N",
                       help="admitted requests waiting beyond the "
                            "inflight limit; more are rejected as "
                            "overloaded (default 8)")
    serve.add_argument("--drain", type=float, default=10.0, metavar="S",
                       help="seconds to let inflight requests finish on "
                            "shutdown (default 10)")

    client = sub.add_parser(
        "client", help="send one request to a running solve gateway"
    )
    client.add_argument("--socket", metavar="PATH",
                        default="repro-gateway.sock",
                        help="gateway unix socket "
                             "(default repro-gateway.sock)")
    client.add_argument("--http", metavar="HOST:PORT", default=None,
                        help="talk HTTP to HOST:PORT instead of the "
                             "unix socket")
    client.add_argument("--op", choices=["status", "shutdown"],
                        default=None,
                        help="administrative operation instead of a "
                             "solve request")
    client.add_argument("--task", default=None,
                        choices=["verify", "generate", "optimize", "fuzz"],
                        help="task to request")
    client.add_argument("--case", default=None,
                        help="case-study scenario (see `repro list`)")
    client.add_argument("--json", metavar="FILE", default=None,
                        help="read the full request payload from a JSON "
                             "file (inline scenarios; overrides --task/"
                             "--case/--param)")
    client.add_argument("--param", action="append", default=[],
                        metavar="K=V",
                        help="task parameter, e.g. strategy=binary "
                             "(repeatable; values parsed as JSON when "
                             "possible)")
    client.add_argument("--deadline", type=float, metavar="S",
                        default=None,
                        help="per-request deadline in seconds")
    client.add_argument("--no-cache", action="store_true",
                        help="bypass the gateway's result cache")
    client.add_argument("--timeout", type=float, metavar="S",
                        default=300.0,
                        help="client-side socket timeout (default 300)")
    return parser


def _cmd_report(args) -> int:
    from repro.obs.report import RunReport

    if not args.trace and not args.metrics:
        raise SystemExit("report needs --trace and/or --metrics")
    report = RunReport.from_files(args.trace, args.metrics)
    print(report.render())
    if args.export_chrome:
        if not args.trace:
            raise SystemExit("--export-chrome needs --trace")
        trace.write_chrome_trace(
            trace.read_jsonl(args.trace), args.export_chrome
        )
        print(f"chrome trace -> {args.export_chrome}", file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    from repro.obs.metrics import read_json
    from repro.obs.profile import format_top

    print(format_top(read_json(args.metrics)))
    return 0


def _cmd_trend(args) -> int:
    from repro.obs.report import format_trend, read_history

    try:
        records = read_history(args.history)
    except FileNotFoundError:
        raise SystemExit(
            f"no history file at {args.history!r} — run a benchmark "
            "(make bench-profile / bench-descent / bench-lazy) first"
        ) from None
    print(format_trend(records, bench=args.bench, keys=args.key or None,
                       last=args.last))
    return 0


def _cmd_serve(args) -> int:
    from repro.gateway import GatewayConfig, serve

    config = GatewayConfig(
        socket_path=args.socket,
        http_port=args.http,
        workers=args.workers,
        cache_entries=args.cache,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        drain_s=args.drain,
    )
    where = f"unix:{args.socket}"
    if args.http:
        where += f" + http:127.0.0.1:{args.http}"
    print(f"gateway listening on {where} "
          f"({args.workers} workers, cache {args.cache})",
          file=sys.stderr)
    return serve(config)


def _cmd_client(args) -> int:
    import json

    from repro.gateway import GatewayClient, GatewayError

    if args.http:
        host, _, port = args.http.rpartition(":")
        try:
            client = GatewayClient(host=host or "127.0.0.1",
                                   port=int(port), timeout_s=args.timeout)
        except ValueError:
            raise SystemExit(f"bad --http {args.http!r}; need HOST:PORT")
    else:
        client = GatewayClient(socket_path=args.socket,
                               timeout_s=args.timeout)

    if args.op:
        payload = {"op": args.op}
    elif args.json:
        with open(args.json, encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        if not args.task:
            raise SystemExit("client needs --op, --json, or --task")
        params = {}
        for spec in args.param:
            key, sep, value = spec.partition("=")
            if not sep:
                raise SystemExit(f"bad --param {spec!r}; need K=V")
            try:
                params[key] = json.loads(value)
            except json.JSONDecodeError:
                params[key] = value
        payload = {"task": args.task}
        if args.case:
            payload["case"] = args.case
        if params:
            payload["params"] = params
    if args.deadline is not None:
        payload.setdefault("deadline_s", args.deadline)
    if args.no_cache:
        payload["no_cache"] = True

    try:
        with client:
            response = client.request(payload)
    except GatewayError as exc:
        raise SystemExit(str(exc))
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "report":
        return _cmd_report(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "trend":
        return _cmd_trend(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)

    tracer = None
    if getattr(args, "trace", None):
        tracer = trace.install(trace.Tracer())
    events_path = getattr(args, "events", None)
    live = getattr(args, "live", False)
    event_log = None
    live_line = None
    if events_path or live:
        from repro.obs import events as obs_events

        listener = None
        if live:
            live_line = obs_events.LiveLine()
            listener = obs_events.live_listener(
                live_line, label=args.command
            )
        event_log = obs_events.install(
            obs_events.EventLog(listener=listener)
        )
    try:
        return _run_command(args)
    finally:
        if live_line is not None:
            live_line.close()
        if event_log is not None:
            from repro.obs import events as obs_events

            if events_path:
                records = event_log.export()
                obs_events.write_jsonl(records, events_path)
                dropped = (
                    f" ({event_log.dropped} dropped)"
                    if event_log.dropped else ""
                )
                print(
                    f"events: {len(records)} -> {events_path}{dropped}",
                    file=sys.stderr,
                )
            obs_events.reset()
        if tracer is not None:
            _write_trace(tracer, args.trace)
            trace.reset()


def _cmd_fuzz(args) -> int:
    from repro.scenarios.fuzz import (
        reproduce,
        run_fuzz,
        write_report,
    )

    if args.reproduce:
        record = reproduce(args.reproduce, jobs=args.jobs,
                           check_optimum=args.check_optimum)
        print(f"{record.name}: verdicts={record.verdicts} "
              f"optima={record.optima}")
        if record.agree:
            print("all paths agree — reproducer no longer fails")
            return 0
        print("DISAGREEMENT reproduced", file=sys.stderr)
        return 1

    reg = MetricsRegistry()
    # The per-scenario log lines would clobber the --live single-line
    # renderer; the fuzz.scenario events feed it instead.
    log = (
        None if getattr(args, "live", False)
        else lambda line: print(line, file=sys.stderr)
    )
    report = run_fuzz(
        count=args.count,
        seed=args.seed,
        jobs=args.jobs,
        check_optimum=args.check_optimum,
        out_dir=args.out,
        registry=reg,
        max_trains=args.max_trains,
        max_loops=args.max_loops,
        log=log,
        profile=getattr(args, "profile", False),
    )
    if args.report:
        write_report(report, args.report)
        print(f"report -> {args.report}", file=sys.stderr)
    if getattr(args, "metrics", None):
        _write_metrics(report.metrics, args.metrics)
    sat = sum(1 for r in report.records if r.verdicts.get("eager"))
    print(f"fuzzed {len(report.records)} scenarios (seed {args.seed}): "
          f"{sat} SAT / {len(report.records) - sat} UNSAT")
    if report.ok:
        print("all solver paths agree")
        return 0
    for record in report.disagreements:
        where = f" -> {record.reproducer}" if record.reproducer else ""
        print(f"DISAGREEMENT seed={record.seed} verdicts={record.verdicts} "
              f"optima={record.optima}{where}", file=sys.stderr)
    return 1


def _run_command(args) -> int:
    if args.command == "list":
        for study in all_case_studies():
            net = study.discretize()
            print(
                f"{study.key:<18} {len(study.schedule)} trains, "
                f"{net.num_segments} segments, {net.num_ttds} TTDs, "
                f"r_s={study.r_s_km} km, r_t={study.r_t_min} min"
            )
        return 0

    if args.command == "table1":
        from repro.tasks.batch import run_table1

        studies = all_case_studies()
        if args.skip_slow:
            studies = studies[:2]
        report = run_table1(skip_slow=args.skip_slow,
                            processes=args.jobs,
                            job_timeout_s=args.job_timeout,
                            manifest_path=args.manifest,
                            profile=args.profile)
        for names, label in (
            (report.resumed_jobs, "restored from manifest"),
            (report.retried_jobs, "retried after a worker death"),
            (report.recovered_jobs, "recovered serially in the parent"),
        ):
            if names:
                print(f"{label}: {', '.join(names)}", file=sys.stderr)
        if report.pool_error:
            print(f"worker pool error: {report.pool_error}",
                  file=sys.stderr)
        failures = report.failures()
        if failures:
            for failure in failures:
                print(f"FAILED {failure.name}: {failure.error}",
                      file=sys.stderr)
            raise SystemExit(1)
        rows = report.values()
        grouped = [rows[i:i + 3] for i in range(0, len(rows), 3)]
        groups = []
        for study, results in zip(studies, grouped):
            caption = (
                f"{study.name} (r_t = {study.r_t_min} min, "
                f"r_s = {study.r_s_km} km)"
            )
            groups.append((caption, results))
        print(format_table1(groups))
        if getattr(args, "metrics", None):
            reg = MetricsRegistry()
            for results in grouped:
                for result in results:
                    reg.merge_dict(getattr(result, "metrics", {}) or {})
            reg.merge_dict(report.metrics)
            reg.set("batch.rows", sum(len(g) for g in grouped))
            reg.write_json(args.metrics)
            print(f"metrics -> {args.metrics}", file=sys.stderr)
        return 0

    if args.command == "fuzz":
        return _cmd_fuzz(args)

    net, schedule, r_t = _scenario(args)
    if args.command == "export":
        from repro.encoding.encoder import EtcsEncoding
        from repro.network.sections import VSSLayout
        from repro.sat import write_dimacs

        encoding = EtcsEncoding(net, schedule, r_t).build()
        if args.pin_pure_ttd:
            encoding.pin_layout(VSSLayout.pure_ttd(net))
        comment = (
            f"ETCS L3 encoding: {len(schedule)} trains, "
            f"{net.num_segments} segments, t_max={encoding.t_max}"
        )
        with open(args.output, "w") as handle:
            handle.write(
                write_dimacs(
                    encoding.cnf.num_vars, encoding.cnf.clauses, comment
                )
            )
        print(
            f"wrote {encoding.cnf.num_vars} vars / "
            f"{encoding.cnf.num_clauses} clauses to {args.output}"
        )
        return 0
    if args.command == "verify":
        result = verify_schedule(net, schedule, r_t, with_proof=args.proof,
                                 parallel=args.jobs, lazy=args.lazy,
                                 lazy_strategy=args.lazy_strategy,
                                 profile=args.profile)
        if args.proof and not result.satisfiable:
            status = "VALID" if result.proof_checked else "REJECTED"
            print(f"DRAT proof of infeasibility: {status}")
        if args.explain and not result.satisfiable:
            from repro.tasks import diagnose_infeasibility

            diagnosis = diagnose_infeasibility(net, schedule, r_t)
            if diagnosis.structural:
                print(
                    "diagnosis: structural — the layout cannot host these "
                    "runs within the horizon, no deadline is to blame"
                )
            else:
                trains = ", ".join(diagnosis.conflicting_trains)
                print("diagnosis: conflicting timetable commitments of "
                      f"train(s) {trains}")
    else:
        result = _run_descent_task(args, net, schedule, r_t)
    if getattr(args, "metrics", None):
        _write_metrics(result.metrics, args.metrics)
    if getattr(result, "resumed", False):
        print("resumed from checkpoint", file=sys.stderr)
    if getattr(result, "status", None) == "timeout":
        bounds = f"proven bounds [{result.lower_bound}, "
        bounds += ("∞" if result.upper_bound is None
                   else str(result.upper_bound)) + "]"
        print(f"deadline hit: best-so-far result, {bounds}",
              file=sys.stderr)
    _report(result, net, args.diagram, args.timetable, r_t)
    return 0 if result.satisfiable else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
