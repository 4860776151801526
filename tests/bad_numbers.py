"""Shared pieces of the property tests that spoil one number of a valid
text input: the numbers a rule refuses, and the one message every reader
gives for a bad line (``errors.read_lines``)."""

import math

from hypothesis import strategies as st

NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])


def out_of_domain(rule: str):
    """Text of a number that ``errors.number`` refuses under ``rule``."""
    if rule == "finite and positive":
        return NON_FINITE | st.floats(max_value=0.0, allow_nan=False).map(repr)
    if rule == "finite and >= 0":
        return NON_FINITE | st.floats(max_value=-math.ulp(0.0), allow_nan=False).map(repr)
    assert rule == "finite", rule
    return NON_FINITE


def replace_token(line: str, slot: int, text: str, sep: str = " ") -> str:
    """``line`` with its ``slot``-th ``sep``-separated token set to ``text``."""
    parts = line.split(sep)
    parts[slot] = text
    return sep.join(parts)


def malformed(path, lineno: int, line: str, reason: str) -> str:
    return f"{path}: malformed line {lineno}: {line!r} ({reason})"
