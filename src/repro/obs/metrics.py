"""A metrics registry: counters, gauges, and histograms with stable keys.

The registry is the single funnel for run telemetry: solver counters
(conflicts, propagations, restarts, ...), encoder sizes per constraint
family, probe-session race outcomes, and benchmark numbers all land
here under dotted names (``solver.conflicts``,
``encoder.placement.clauses``, ``portfolio.wins.base``), so every consumer
— ``TaskResult.metrics``, the ``--metrics`` CLI flag, BENCH JSON — sees the
same stable key set.

Three instrument kinds:

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-written values (``set``);
* :class:`Histogram` — scalar observations summarised as
  count/sum/min/max/mean (``observe``).
"""

from __future__ import annotations

import json


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, delta: int | float = 1) -> None:
        self.value += delta


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Summary statistics over scalar observations."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus domain-specific absorbers."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def inc(self, name: str, delta: int | float = 1) -> None:
        self.counter(name).inc(delta)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- domain absorbers ----------------------------------------------

    def absorb_counters(self, mapping: dict, prefix: str = "") -> None:
        """Add every numeric value of ``mapping`` to a same-named counter."""
        for key, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.counter(f"{prefix}{key}").inc(value)

    def absorb_solver_stats(
        self, stats: dict, prefix: str = "solver."
    ) -> None:
        """Absorb a :meth:`SolverStats.as_dict` payload.

        Embedded hot-path profiler counters (``profile.*`` keys, present
        when ``SolverConfig.profile`` is on) keep their own namespace
        instead of being nested under ``prefix``, and the throughput
        gauges ``profile.props_per_s`` / ``profile.conflicts_per_s`` are
        derived from the accumulated solver totals.
        """
        plain = {
            key: value
            for key, value in stats.items()
            if not key.startswith("profile.")
        }
        self.absorb_counters(plain, prefix)
        if len(plain) == len(stats):
            return
        self.absorb_counters(
            {
                key: value
                for key, value in stats.items()
                if key.startswith("profile.")
            }
        )
        solve_time = self.counter(f"{prefix}solve_time").value
        if solve_time > 0:
            self.set(
                "profile.props_per_s",
                self.counter(f"{prefix}propagations").value / solve_time,
            )
            self.set(
                "profile.conflicts_per_s",
                self.counter(f"{prefix}conflicts").value / solve_time,
            )

    def absorb_encoder(
        self, family_stats: dict[str, dict], prefix: str = "encoder."
    ) -> None:
        """Absorb per-constraint-family encoder sizes
        (:attr:`EtcsEncoding.family_stats`)."""
        for family, sizes in family_stats.items():
            self.absorb_counters(sizes, f"{prefix}{family}.")

    def absorb_lazy(self, stats: dict) -> None:
        """Absorb a lazy-refinement summary (the ``lazy.*`` keys of
        :meth:`repro.encoding.lazy.LazyRefiner.stats`)."""
        self.absorb_counters(stats)

    # -- output --------------------------------------------------------

    def merge_dict(self, flat: dict, prefix: str = "") -> None:
        """Absorb a previously exported :meth:`as_dict` payload."""
        for key, value in flat.items():
            name = f"{prefix}{key}"
            if isinstance(value, dict):
                histogram = self.histogram(name)
                histogram.count += value.get("count", 0)
                histogram.total += value.get("sum", 0.0)
                for bound, pick in (("min", min), ("max", max)):
                    incoming = value.get(bound)
                    if incoming is None:
                        continue
                    current = getattr(histogram, "minimum"
                                      if bound == "min" else "maximum")
                    merged = (incoming if current is None
                              else pick(current, incoming))
                    if bound == "min":
                        histogram.minimum = merged
                    else:
                        histogram.maximum = merged
            elif isinstance(value, bool):
                self.set(name, float(value))
            elif isinstance(value, int):
                self.inc(name, value)
            elif isinstance(value, float):
                self.set(name, value)

    def as_dict(self) -> dict:
        """Flat ``{name: value}`` mapping with deterministically sorted
        keys; histograms appear as ``{count, sum, min, max, mean}``."""
        out: dict = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return dict(sorted(out.items()))

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def read_json(path: str) -> dict:
    """Read a metrics file written by :meth:`MetricsRegistry.write_json`."""
    with open(path) as handle:
        return json.load(handle)
