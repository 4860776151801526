"""Test-session set-up.

Importing amodcc before any test module loads NumPy pins BLAS to one
thread, as on the command line.  Runs train their forecast bank in one
process per core by default; with one BLAS thread per core in each, the
processes oversubscribe the machine and the suite runs several times
slower.
"""

import amodcc  # noqa: F401
