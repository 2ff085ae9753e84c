"""Common shape of a case study."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.network.discretize import DiscreteNetwork
from repro.network.topology import RailwayNetwork
from repro.trains.schedule import Schedule


@dataclass
class PaperRow:
    """One row of the paper's Table I, for comparison in EXPERIMENTS.md."""

    task: str
    variables: int
    satisfiable: bool
    sections: int
    time_steps: int | None
    runtime_s: float


@dataclass
class CaseStudy:
    """A network + schedule + resolutions, as evaluated in the paper."""

    name: str
    network: RailwayNetwork
    schedule: Schedule
    r_s_km: float
    r_t_min: float
    paper_rows: list[PaperRow] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Command-line key: ``"Running Example"`` -> ``"running-example"``."""
        return self.name.lower().replace(" ", "-")

    def discretize(self) -> DiscreteNetwork:
        """The segment graph at this case study's spatial resolution."""
        return DiscreteNetwork(self.network, self.r_s_km)


def _builders() -> dict[str, Callable[[], CaseStudy]]:
    """Each study's builder under its key, in the paper's order."""
    from repro.casestudies.complex_layout import complex_layout
    from repro.casestudies.nordlandsbanen import nordlandsbanen
    from repro.casestudies.running_example import running_example
    from repro.casestudies.simple_layout import simple_layout

    return {
        "running-example": running_example,
        "simple-layout": simple_layout,
        "complex-layout": complex_layout,
        "nordlandsbanen": nordlandsbanen,
    }


def case_study(key: str) -> CaseStudy:
    """The study whose :attr:`CaseStudy.key` is ``key``, built alone.

    Raises :class:`ValueError`, naming the known keys, for any other key.
    """
    builders = _builders()
    if key not in builders:
        raise ValueError(
            f"unknown case study {key!r}; known: {', '.join(builders)}"
        )
    return builders[key]()


def all_case_studies() -> list[CaseStudy]:
    """All four §IV case studies, in the paper's order."""
    return [build() for build in _builders().values()]
