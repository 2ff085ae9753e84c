"""Human-readable run reports from a trace + a metrics payload.

:class:`RunReport` aggregates the spans of one run into a timing tree
(total time and share of wall clock per span path, across all processes)
and appends the metrics registry content — the terminal-friendly
counterpart of opening the Chrome trace in Perfetto.  The ``repro report``
CLI subcommand is a thin wrapper over this module.

The ``--metrics`` file may also be a fuzz-report artifact
(``repro fuzz --report``): its embedded ``scenario.*`` metrics render
through the same path, prefixed by a per-scenario verdict summary.

:func:`read_history` / :func:`format_trend` render the per-key
performance trajectories of a ``BENCH_HISTORY.jsonl`` file
(``benchmarks/history.py``) for the ``repro trend`` subcommand.
"""

from __future__ import annotations

import json

from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:8.2f}ms"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class RunReport:
    """Aggregated timing/metrics breakdown of one run."""

    def __init__(
        self,
        spans: list[dict] | None = None,
        metrics: dict | None = None,
        fuzz: dict | None = None,
    ):
        self.spans = [
            span for span in (spans or [])
            if span.get("kind", "span") == "span"
        ]
        self.events = [
            span for span in (spans or [])
            if span.get("kind") == "event"
        ]
        self.metrics = metrics or {}
        self.fuzz = fuzz

    @classmethod
    def from_files(
        cls,
        trace_path: str | None = None,
        metrics_path: str | None = None,
    ) -> "RunReport":
        spans = trace_mod.read_jsonl(trace_path) if trace_path else []
        metrics = metrics_mod.read_json(metrics_path) if metrics_path else {}
        fuzz = None
        if isinstance(metrics.get("records"), list) and isinstance(
            metrics.get("metrics"), dict
        ):
            # A ``repro fuzz --report`` artifact: lift its embedded
            # registry so the ``scenario.*`` keys render normally.
            fuzz = metrics
            metrics = metrics["metrics"]
        return cls(spans, metrics, fuzz)

    # -- aggregation ---------------------------------------------------

    def wall_time_s(self) -> float:
        """End-to-end wall clock covered by the trace."""
        if not self.spans:
            return 0.0
        return max(s["t1"] for s in self.spans) - min(
            s["t0"] for s in self.spans
        )

    def timing_rows(self) -> list[tuple[str, int, float]]:
        """``(path, count, total_seconds)`` rows, in first-seen order."""
        totals: dict[str, list] = {}
        for span in sorted(self.spans, key=lambda s: s["t0"]):
            path = span.get("path", span["name"])
            entry = totals.get(path)
            if entry is None:
                totals[path] = [1, span["t1"] - span["t0"]]
            else:
                entry[0] += 1
                entry[1] += span["t1"] - span["t0"]
        return [
            (path, count, total) for path, (count, total) in totals.items()
        ]

    # -- rendering -----------------------------------------------------

    def fuzz_rows(self) -> list[str]:
        """One summary line per fuzz record (empty unless the metrics
        payload was a fuzz-report artifact)."""
        if not self.fuzz:
            return []
        rows = []
        for record in self.fuzz.get("records", []):
            verdicts = record.get("verdicts", {})
            verdict = "?"
            if verdicts:
                first = next(iter(verdicts.values()))
                verdict = "SAT" if first else "UNSAT"
            agree = (
                record.get("verdicts_agree", True)
                and record.get("optima_agree", True)
            )
            rows.append(
                f"  seed {record.get('seed', '?'):<10} "
                f"{record.get('name', '?'):<28} {verdict:<6}"
                f"{'agree' if agree else 'DISAGREE'}"
            )
        return rows

    def render(self) -> str:
        lines: list[str] = []
        wall = self.wall_time_s()
        if self.fuzz:
            ok = self.fuzz.get("ok")
            lines.append(
                f"Fuzz run: seed {self.fuzz.get('seed', '?')}, "
                f"{len(self.fuzz.get('records', []))} scenario(s), "
                f"{'all paths agree' if ok else 'DISAGREEMENTS FOUND'}"
            )
            lines.extend(self.fuzz_rows())
            lines.append("")
        if self.spans:
            pids = {span.get("pid", 0) for span in self.spans}
            tracks = {
                (span.get("pid", 0), span.get("tid", "main"))
                for span in self.spans
            }
            lines.append(
                f"Trace: {len(self.spans)} spans, {len(pids)} process(es), "
                f"{len(tracks)} track(s), wall {wall:.3f}s"
            )
            lines.append("")
            header = f"{'span':<44}{'count':>7}{'total':>11}{'% wall':>9}"
            lines.append(header)
            lines.append("-" * len(header))
            for path, count, total in self.timing_rows():
                depth = path.count("/")
                name = "  " * depth + path.rsplit("/", 1)[-1]
                share = (100.0 * total / wall) if wall > 0 else 0.0
                lines.append(
                    f"{name:<44}{count:>7}{_format_seconds(total):>11}"
                    f"{share:>8.1f}%"
                )
            if self.events:
                lines.append("")
                lines.append(f"Events: {len(self.events)}")
                for event in self.events[:20]:
                    args = ", ".join(
                        f"{k}={_format_value(v)}"
                        for k, v in event.get("args", {}).items()
                    )
                    lines.append(f"  {event['name']}  {args}")
                if len(self.events) > 20:
                    lines.append(f"  ... {len(self.events) - 20} more")
        if self.metrics:
            if lines:
                lines.append("")
            kernels = {
                key[len("solver.kernel."):]: value
                for key, value in self.metrics.items()
                if key.startswith("solver.kernel.")
            }
            if kernels:
                # Which kernel build(s) answered (see repro.sat.kernel),
                # counted per solve.
                lines.append(
                    "SAT engine: " + ", ".join(
                        f"{kind} ({int(count)} solve call(s))"
                        for kind, count in sorted(kernels.items())
                    )
                )
                lines.append("")
            lines.append(f"Metrics: {len(self.metrics)} keys")
            lines.append("")
            for name, value in sorted(self.metrics.items()):
                if isinstance(value, dict):  # histogram summary
                    mean = value.get("mean")
                    detail = (
                        f"n={value.get('count', 0)}"
                        " mean="
                        f"{_format_value(mean) if mean is not None else '-'}"
                        f" min={_format_value(value.get('min'))}"
                        f" max={_format_value(value.get('max'))}"
                    )
                    lines.append(f"  {name:<44}{detail}")
                else:
                    lines.append(f"  {name:<44}{_format_value(value)}")
        if not lines:
            lines.append("(empty report: no spans and no metrics)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Bench-history trajectories (``repro trend``)
# ----------------------------------------------------------------------


def read_history(path: str) -> list[dict]:
    """Read a ``BENCH_HISTORY.jsonl`` file (``benchmarks/history.py``).

    Each line is one bench run: ``{"sha", "time", "bench", "metrics"}``.
    Undecodable lines (torn appends) are skipped.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "metrics" in record:
                records.append(record)
    return records


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    finite = [v for v in values if isinstance(v, (int, float))]
    if not finite:
        return ""
    low, high = min(finite), max(finite)
    if high - low < 1e-12:
        return _SPARK_GLYPHS[0] * len(values)
    out = []
    for value in values:
        frac = (value - low) / (high - low)
        out.append(_SPARK_GLYPHS[int(frac * (len(_SPARK_GLYPHS) - 1))])
    return "".join(out)


def format_trend(
    records: list[dict],
    bench: str | None = None,
    keys: list[str] | None = None,
    last: int = 20,
) -> str:
    """Render per-key performance trajectories across bench runs.

    ``bench`` filters to one benchmark name; ``keys`` to matching metric
    keys (substring match); ``last`` bounds how many most-recent runs
    feed each trajectory.
    """
    if bench:
        records = [r for r in records if r.get("bench") == bench]
    if not records:
        return "no history records found" + (
            f" for bench {bench!r}" if bench else ""
        )
    series: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for record in records:
        name = record.get("bench", "?")
        sha = str(record.get("sha", "?"))[:9]
        for key, value in sorted(record.get("metrics", {}).items()):
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            if keys and not any(fragment in key for fragment in keys):
                continue
            series.setdefault((name, key), []).append((sha, value))
    if not series:
        return "no numeric metric keys matched"
    lines = []
    benches = sorted({name for name, __ in series})
    for name in benches:
        runs = sum(1 for r in records if r.get("bench") == name)
        lines.append(f"{name}  ({runs} run(s))")
        for (bench_name, key), points in sorted(series.items()):
            if bench_name != name:
                continue
            tail = points[-last:]
            values = [v for __, v in tail]
            latest_sha, latest = tail[-1]
            spark = _sparkline(values)
            lo, hi = min(values), max(values)
            lines.append(
                f"  {key:<40} {spark:<{last}} "
                f"last {_format_value(latest)} @ {latest_sha}  "
                f"[{_format_value(lo)} .. {_format_value(hi)}]"
            )
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)
