"""Exception taxonomy shared across the package, and :func:`read_lines`,
which reads every text input (trip, network, bank and config files).

Exit-code mapping used by the CLI lives in ``amodcc.cli``; library code
raises these types and never calls ``sys.exit`` itself.
"""

from __future__ import annotations

import math
from typing import Callable


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input: files, configs, arguments."""


class NumericalError(RuntimeError):
    """A numerical routine failed after its built-in recovery attempts."""


class SolverError(RuntimeError):
    """Base class for optimizer failures."""


class InfeasibleError(SolverError):
    """The optimization problem admits no feasible point."""


def read_lines(path: str, handle: Callable[[int, str], None]) -> None:
    """Call ``handle(lineno, text)`` on each line of the UTF-8 file at
    ``path``, numbered from 1, with any ``#`` comment dropped; blank lines
    are skipped.

    A line that is not UTF-8, or a ``ValueError`` or ``IndexError`` raised
    by ``handle``, becomes an :class:`InvalidInputError` naming the file,
    the line and the reason.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()      # shown as bytes if it is not UTF-8
            try:
                text = raw.decode("utf-8").split("#", 1)[0].strip()
                if text:
                    handle(lineno, text)
            except (IndexError, ValueError) as exc:
                raise InvalidInputError(
                    f"{path}: malformed line {lineno}: {text!r} ({exc})") from exc


def number(text: str, name: str, rule: str = "finite") -> float:
    """The number ``text`` of a file line, checked against ``rule`` where
    it is read: "finite", "finite and positive" or "finite and >= 0".
    Out of its domain it is a ``ValueError``, which :func:`read_lines`
    reports with the line."""
    value = float(text)
    in_domain = {"finite": True, "finite and positive": value > 0,
                 "finite and >= 0": value >= 0}[rule]
    if not (math.isfinite(value) and in_domain):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value
