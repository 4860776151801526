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
    """Pairwise Euclidean distances between two point sets, (n, m).

    ``sqrt(dx*dx + dy*dy)``, computed in place in one (n, m) buffer.
    """
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    cost = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    cost *= cost
    dy *= dy
    cost += dy
    return np.sqrt(cost, out=cost)


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
