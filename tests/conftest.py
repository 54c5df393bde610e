"""Run the in-process tests at the BLAS settings of the ``cumlab`` command.

BLAS reads its thread count and wait policy once, when numpy loads it.
pytest imports this file before any test module, and importing cumlab
applies its defaults (see ``cumlab.BLAS_SETTINGS``) and loads nothing
else, numpy included; so numpy, first loaded by a test module, reads them,
and the in-process tests, the bit-equality tests among them, run on the
one BLAS thread the command runs on.

The start-up contract (no scipy import, modules left to first use) is
checked in two fresh interpreters, each run once per session by a fixture
here, so that the tests of ``test_cli.py`` and ``test_cumtensor.py`` share
them.
"""

import pytest

import cumlab  # noqa: F401


@pytest.fixture(scope="session")
def cli_import_probe():
    """[scipy modules tried, modules loaded] by ``import cumlab.cli``."""
    from test_cli import probe_cli_import

    return probe_cli_import()


@pytest.fixture(scope="session")
def cli_run_probe(tmp_path_factory):
    """[scipy refused, {run: [exit code, scipy modules tried]}] of the tiny
    runs of every subcommand with scipy refused."""
    from test_cli import probe_cli_runs

    return probe_cli_runs(tmp_path_factory.mktemp("cli-run-probe"))
