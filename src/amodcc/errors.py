"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI lives in ``amodcc.cli``; library code
raises these types and never calls ``sys.exit`` itself.
"""


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input: files, configs, arguments."""


class NumericalError(RuntimeError):
    """A numerical routine failed after its built-in recovery attempts."""


class SolverError(RuntimeError):
    """Base class for optimizer failures."""


class InfeasibleError(SolverError):
    """The optimization problem admits no feasible point."""
