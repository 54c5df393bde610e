"""Time a fresh interpreter's import of ``cumlab.cli`` and describe the environment.

Run as ``python3 perfbench/probe.py`` with ``src`` on ``PYTHONPATH``.
Prints one JSON object: ``import_s`` and the library and BLAS facts.
Only ``time`` is imported before the clock starts, so the figure is the
import cost that every CLI call and every spawn worker pays.
"""

import time

t0 = time.perf_counter()
import cumlab.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import json  # noqa: E402
import platform  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

try:
    import numba  # noqa: F401

    numba_imports = True
except ImportError:
    numba_imports = False

blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "import_s": import_s,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "numba_imports": numba_imports,
}))
