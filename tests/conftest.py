"""Shared fixtures: small networks and schedules used across the test suite.

Also installs a global per-test wall-clock timeout (SIGALRM-based, no
third-party plugin): a hung test — e.g. a fault-injection scenario whose
recovery path regresses — fails with a traceback instead of wedging the
whole suite.  Override the limit with ``REPRO_TEST_TIMEOUT_S``; setting
it to 0 disables the alarm.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.discretize import DiscreteNetwork
from repro.trains.schedule import Schedule, TrainRun
from repro.trains.train import Train

_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "180"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    usable = (
        _TEST_TIMEOUT_S > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the global {_TEST_TIMEOUT_S:.0f}s timeout "
            "(REPRO_TEST_TIMEOUT_S)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def micro_line():
    """A 3 km straight line: station A — middle — station B (3 TTDs)."""
    return (
        NetworkBuilder()
        .boundary("A")
        .link("m1")
        .link("m2")
        .boundary("B")
        .track("A", "m1", length_km=1.0, ttd="TTD1", name="staA")
        .track("m1", "m2", length_km=1.0, ttd="TTD2", name="mid")
        .track("m2", "B", length_km=1.0, ttd="TTD3", name="staB")
        .station("A", ["staA"])
        .station("B", ["staB"])
        .build()
    )


@pytest.fixture
def micro_net(micro_line):
    """The micro line at r_s = 0.5 km (6 segments)."""
    return DiscreteNetwork(micro_line, 0.5)


@pytest.fixture
def loop_line():
    """A line with a two-track passing loop in the middle (4 TTDs)."""
    return (
        NetworkBuilder()
        .boundary("A")
        .switch("p1")
        .switch("p2")
        .boundary("B")
        .track("A", "p1", length_km=1.0, ttd="TTD1", name="staA")
        .track("p1", "p2", length_km=1.0, ttd="TTD2", name="up")
        .track("p1", "p2", length_km=1.0, ttd="TTD3", name="down")
        .track("p2", "B", length_km=1.0, ttd="TTD4", name="staB")
        .station("A", ["staA"])
        .station("B", ["staB"])
        .build()
    )


@pytest.fixture
def loop_net(loop_line):
    """The passing-loop line at r_s = 0.5 km (8 segments)."""
    return DiscreteNetwork(loop_line, 0.5)


@pytest.fixture
def single_train_schedule():
    """One train A -> B over 5 minutes."""
    run = TrainRun(
        Train("T", length_m=400, max_speed_kmh=120),
        start="A",
        goal="B",
        departure_min=0.0,
        arrival_min=4.0,
    )
    return Schedule([run], duration_min=5.0)


@pytest.fixture
def crossing_schedule():
    """Two opposing trains that must cross somewhere."""
    runs = [
        TrainRun(
            Train("E", length_m=400, max_speed_kmh=120),
            start="A",
            goal="B",
            departure_min=0.0,
            arrival_min=5.0,
        ),
        TrainRun(
            Train("W", length_m=400, max_speed_kmh=120),
            start="B",
            goal="A",
            departure_min=0.0,
            arrival_min=5.0,
        ),
    ]
    return Schedule(runs, duration_min=6.0)


@pytest.fixture
def helpers_from_first_probe(monkeypatch):
    """Solver-service helpers fork as a session's first probe starts.

    A service forks its helpers only once a probe outlives the primary's
    initial load, which the small formulas of the tests rarely do; this
    fixture keeps the service, fault, telemetry, race and parity tests
    racing (and killing, hanging, crashing) real helpers from probe 1
    on.  Forked workers (a batch job's session) inherit it.
    """
    from repro.sat import service

    monkeypatch.setattr(service, "_FORK_AFTER_LOADS", 0.0)
