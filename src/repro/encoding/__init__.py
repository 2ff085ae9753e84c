"""The paper's symbolic formulation (§III).

* :mod:`repro.encoding.variables` — the ``border``/``occupies``/``done``
  variable registry over a :class:`repro.logic.VarPool`,
* :mod:`repro.encoding.cone` — cone-of-influence reduction: per-train,
  per-step sets of segments the train can possibly occupy,
* :mod:`repro.encoding.encoder` — assembles the CNF: placement (exactly one
  chain), movement, VSS separation, no-passing-through, schedule and task
  constraints, and the two objectives,
* :mod:`repro.encoding.decode` — turns SAT models back into VSS layouts and
  train trajectories,
* :mod:`repro.encoding.validate` — an independent procedural checker of
  decoded solutions (used heavily by the test suite),
* :mod:`repro.encoding.lazy` — counterexample-guided lazy instantiation of
  the cross-train constraint families (CEGAR).
"""

from repro.encoding.decode import Solution, TrainTrajectory
from repro.encoding.encoder import EncodingOptions, EtcsEncoding
from repro.encoding.lazy import LazyRefiner
from repro.encoding.validate import validate_solution

__all__ = [
    "EtcsEncoding",
    "EncodingOptions",
    "LazyRefiner",
    "Solution",
    "TrainTrajectory",
    "validate_solution",
]
