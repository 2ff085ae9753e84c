"""How fast the host runs Python right now.

A shared host changes speed within seconds: other tenants' load slows
every vCPU by up to half, for seconds or minutes at a time.  A pass
probes the speed just before each operation it times (:func:`probe`), and
``run.py`` scales the operation's time by :data:`REFERENCE_KERNEL_S` over
the probe, so that times read as on an uncontended host.  The probe runs
:func:`reference_kernel`, fixed work that shares no code with ``repro``:
a change to the program cannot move the scale.
"""

from __future__ import annotations

import time

#: Best time of :func:`reference_kernel` on an uncontended host (2.1 GHz
#: Xeon vCPU, CPython 3.11): the speed end-to-end times are scaled to.
REFERENCE_KERNEL_S = 0.0035
#: Kernel runs per probe; the probe is the fastest of them.
PROBE_SAMPLES = 2


def reference_kernel() -> int:
    """Interpreter-bound work: list indexing, integer arithmetic and dict
    stores, as in the solver's inner loops.  About 4 ms."""
    values = list(range(512))
    seen = {}
    total = 0
    for i in range(30_000):
        j = values[i & 511]
        total += (j * 31 + i) % 7
        if total & 1:
            seen[j] = total
    return total + len(seen)


def probe() -> float:
    """Seconds :func:`reference_kernel` takes now."""
    best = float("inf")
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured beside a probe of ``kernel_s``
    into a time on the reference host."""
    return REFERENCE_KERNEL_S / kernel_s
