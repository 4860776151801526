"""Test-session set-up.

Importing amodcc before any test module loads NumPy pins BLAS to one
thread, as on the command line.  Runs train their forecast bank in one
process per core by default; with one BLAS thread per core in each, the
processes oversubscribe the machine and the suite runs several times
slower.
"""

import amodcc  # noqa: F401

import pytest


@pytest.fixture(scope="session")
def seed0_period():
    """The golden seed-0 ``ccmpc`` period, run once per session: its
    metrics and every control instant's program, inputs and plan
    (``test_golden.record_period``)."""
    from test_golden import record_period
    return record_period()
