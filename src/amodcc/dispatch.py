"""Vehicle-to-request matching.

Assignment is solved exactly by SciPy's ``linear_sum_assignment`` (a
shortest-augmenting-path method; Crouse, IEEE TAES 2016).  Rectangular
inputs match the shorter side completely and leave the rest of the wider
side unmatched.

The cost matrix is built in the orientation SciPy solves, so it is
neither copied nor transposed: requests x vehicles when there are fewer
requests than vehicles, vehicles x requests otherwise.  A square problem
keeps vehicles x requests, since on ties its transpose can return a
different optimal matching.  A lone request takes its row's first
minimum (``argmin``), the column one augmenting path over one row picks.
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
    cost = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
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
    vehicles = np.asarray(vehicle_xy, dtype=float).reshape(-1, 2)
    requests = np.asarray(request_xy, dtype=float).reshape(-1, 2)
    n_requests = len(requests)
    wide = n_requests < len(vehicles)
    cost = (distance_cost_matrix(requests, vehicles) if wide
            else distance_cost_matrix(vehicles, requests))
    if cost.size == 0:
        return []
    if not cost.max() < np.inf:      # NaN fails this too
        raise InvalidInputError("pickup distances must be finite")
    if n_requests == 1:
        return [(int(cost.argmin()), 0)]
    rows, cols = linear_sum_assignment(cost)
    if wide:
        return sorted(zip(cols.tolist(), rows.tolist()))
    return list(zip(rows.tolist(), cols.tolist()))
