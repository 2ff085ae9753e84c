"""Which build of the SAT kernel this process runs.

The CDCL engine lives in :mod:`repro.sat._kernel`, written in a
restricted, fully-annotated subset of Python so the same source compiles
with mypyc (or Cython in pure-Python mode) into a C extension.  When the
extension has been built (``REPRO_BUILD_KERNEL=1 pip install -e .``),
the ``.so`` shadows ``_kernel.py`` on import and every
:class:`repro.sat.Solver` runs compiled; otherwise the interpreted
module loads and the search is identical, just slower.

* ``kernel_build()`` reports which build a plain import gets — surfaced
  by ``repro report`` and recorded in benchmark metadata.
* ``load_interpreted()`` returns the interpreted source module even when
  the compiled build shadows it, so benchmarks can time one against the
  other and tests can compare their traces.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

_interpreted_module = None


def kernel_build() -> str:
    """The kernel build a plain ``import repro.sat._kernel`` provides.

    ``"compiled"`` when the optional extension is installed (the ``.so``
    shadows the source file), else ``"interpreted"``.
    """
    module = importlib.import_module("repro.sat._kernel")
    return module.KERNEL_KIND


def load_interpreted():
    """The kernel module run from its Python source, on any host."""
    global _interpreted_module
    module = importlib.import_module("repro.sat._kernel")
    if module.KERNEL_KIND == "interpreted":
        return module
    # A compiled build shadows _kernel.py; load the source file itself.
    if _interpreted_module is None:
        path = os.path.join(os.path.dirname(__file__), "_kernel.py")
        spec = importlib.util.spec_from_file_location(
            "repro.sat._kernel_interpreted", path
        )
        if spec is None or spec.loader is None:
            raise RuntimeError(f"cannot load interpreted kernel from {path}")
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        _interpreted_module = loaded
    return _interpreted_module
