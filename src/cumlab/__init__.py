"""Numerical laboratory for the spiked cumulant hypothesis-testing problem."""

import os
import sys

# BLAS runs one thread per process; the --jobs pool is cumlab's only
# parallelism.  No product cumlab makes is large enough to gain from a
# second BLAS thread, while pool workers that each start one BLAS thread
# per core oversubscribe the cores.  One thread also fixes how each
# product is split, and so its rounding: the metric CSVs are the same at
# any --jobs and on any number of cores.  Idle BLAS threads, should a user
# raise the count, sleep at once instead of busy-waiting (OpenBLAS for
# 2^28 cycles by default, OpenMP runtimes in their active wait policy):
# a spinning helper thread burns a core.  BLAS reads these settings when
# it loads, so they are set here, before any cumlab module imports numpy;
# a value the user set wins.  BLAS_SETTINGS holds the values in force,
# None when numpy was loaded before cumlab and so read none of them.
BLAS_SETTINGS = {var: os.environ.setdefault(var, value) for var, value in
                 (("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_THREAD_TIMEOUT", "4"),
                  ("OMP_WAIT_POLICY", "PASSIVE"))}
if "numpy" in sys.modules:
    BLAS_SETTINGS = None

__version__ = "0.1.0"
