"""The four case studies of the paper's evaluation (§IV).

Each module exposes a :class:`CaseStudy` with the network, the schedule, and
the paper's resolutions:

* :mod:`repro.casestudies.running_example` — Fig. 1 (r_t=0.5 min, r_s=0.5 km),
* :mod:`repro.casestudies.simple_layout` — Fig. 4a, 3 stations
  (r_t=1 min, r_s=0.5 km),
* :mod:`repro.casestudies.complex_layout` — Fig. 4b, 6 stations
  (r_t=3 min, r_s=1 km),
* :mod:`repro.casestudies.nordlandsbanen` — the Trondheim–Bodø line, 58
  stations over 822 km (r_t=5 min, r_s=5 km).

The networks are reconstructions from the paper's textual description (see
DESIGN.md §2); schedules for the latter three are synthesised to exercise the
same phenomenon the paper reports: the pure TTD layout deadlocks, a few VSS
borders repair it, and more VSS buys a shorter makespan.

:func:`case_study` builds one study from its command-line key (such as
``"running-example"``); :func:`all_case_studies` builds all four.
"""

from repro.casestudies.base import CaseStudy, all_case_studies, case_study

__all__ = ["CaseStudy", "all_case_studies", "case_study"]
