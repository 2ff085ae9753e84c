"""SAT-based minimisation engine.

The paper's generation and optimization tasks add objective functions
(``min Σ border_v`` and ``min Σ_t ¬done^t``) on top of the satisfiability
formulation; Z3 handles these natively.  This package reimplements the
capability on top of :mod:`repro.sat` as one descent,
:func:`minimize_sum`, with three interchangeable strategies (compared by
``benchmarks/bench_ablation_optimization.py``):

* ``linear``  — SAT–UNSAT descent: repeatedly tighten a totalizer bound
  below the best model found so far until UNSAT proves optimality.
* ``binary``  — binary search on the totalizer bound.
* ``core``    — Fu–Malik core-guided search from below (UNSAT–SAT);
  the generation task's default.

Lexicographic objectives run as stages of the same descent
(``minimize_sum(..., then=[...])``); :func:`minimize_weighted_sum`
reduces weights to it.
"""

from repro.opt.checkpoint import CheckpointError, load_checkpoint
from repro.opt.minimize import minimize_sum
from repro.opt.weighted import minimize_weighted_sum
from repro.opt.result import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    STATUS_RESUMED,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN,
    DescentResult,
)

__all__ = [
    "CheckpointError",
    "DescentResult",
    "STATUS_FEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_RESUMED",
    "STATUS_TIMEOUT",
    "STATUS_UNKNOWN",
    "load_checkpoint",
    "minimize_sum",
    "minimize_weighted_sum",
]
