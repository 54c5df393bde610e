"""Numerical laboratory for the spiked cumulant hypothesis-testing problem."""

import os
import sys

# Idle BLAS threads busy-wait for work before they sleep: OpenBLAS for
# 2^28 cycles by default, OpenMP runtimes in their active wait policy.  A
# spinning helper thread burns a core: it about doubles the CPU time of a
# --jobs 1 run, and in a pool it takes cores from the other workers.
# These settings make idle threads sleep at once.  BLAS reads them when it loads, so they are set
# here, before any cumlab module imports numpy; a value the user set wins.
# They leave the thread count alone: BLAS rounding depends on how a
# product is split between threads, and keeping the count keeps the metric
# CSVs byte-identical at any --jobs.  BLAS_IDLE_WAIT holds the values in
# force, None when numpy was loaded before cumlab and so read none of them.
BLAS_IDLE_WAIT = {var: os.environ.setdefault(var, value) for var, value in
                  (("OPENBLAS_THREAD_TIMEOUT", "4"), ("OMP_WAIT_POLICY", "PASSIVE"))}
if "numpy" in sys.modules:
    BLAS_IDLE_WAIT = None

__version__ = "0.1.0"

from .hermite import (
    GDistribution,
    HermiteBasis,
    hermite_coeff_expectation,
    hermite_eval,
)

__all__ = [
    "GDistribution",
    "HermiteBasis",
    "hermite_coeff_expectation",
    "hermite_eval",
    "__version__",
]
