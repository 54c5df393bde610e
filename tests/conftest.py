"""Run the in-process tests at the BLAS settings of the ``cumlab`` command.

BLAS reads its thread count and wait policy once, when numpy loads it.
pytest imports this file before any test module, and importing cumlab
applies its defaults (see ``cumlab.BLAS_SETTINGS``) before cumlab loads
numpy; so the in-process tests, the bit-equality tests among them, run on
the one BLAS thread the command runs on.
"""

import cumlab  # noqa: F401
