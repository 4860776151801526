"""Vehicle-to-request matching.

Assignment is solved exactly by SciPy's ``linear_sum_assignment`` (a
shortest-augmenting-path method; Crouse, IEEE TAES 2016).  Rectangular
inputs match the shorter side completely and leave the rest of the wider
side unmatched.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError


def distance_cost_matrix(a_xy: np.ndarray, b_xy: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between two point sets, (n, m)."""
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def assign_pickups(
    vehicle_xy: np.ndarray, request_xy: np.ndarray
) -> list[tuple[int, int]]:
    """Match vehicles to requests by minimum total pickup distance.

    Returns (vehicle index, request index) pairs sorted by vehicle; the
    shorter side is matched completely.
    """
    cost = distance_cost_matrix(vehicle_xy, request_xy)
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise InvalidInputError("pickup distances must be finite")
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))
