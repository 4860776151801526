"""Checks of the program's outputs against computations written here.

Nothing in this file calls into the program: each check takes the
program's inputs and outputs as plain arrays and recomputes what it can
with numpy and scipy alone.  ``selftest`` feeds every check one correct
and one corrupted output, so a check that stops rejecting anything shows.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp


class CheckFailed(AssertionError):
    """One of the program's outputs disagrees with the independent value."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rows_hold(a: sparse.spmatrix, senses, b, lb, ub, x) -> None:
    """Recheck ``x`` against every row and bound in integer arithmetic.

    The rebalancing program has integer coefficients and right-hand
    sides, so an integral plan must satisfy each row exactly; no
    tolerance is involved.
    """
    x = np.asarray(x, dtype=float)
    _require(bool(np.all(x == np.round(x))), "plan is not integral")
    a = sparse.csr_matrix(a)
    _require(bool(np.all(a.data == np.round(a.data))), "row coefficients are not integers")
    b = np.asarray(b, dtype=float)
    _require(bool(np.all(b == np.round(b))), "right-hand side is not integral")
    xi = np.round(x).astype(np.int64)
    ai = sparse.csr_matrix((a.data.astype(np.int64), a.indices, a.indptr), shape=a.shape)
    lhs = ai @ xi
    bi = np.round(b).astype(np.int64)
    senses = np.asarray(senses)
    _require(bool(np.all(lhs[senses == "E"] == bi[senses == "E"])), "an equality row is violated")
    _require(bool(np.all(lhs[senses == "L"] <= bi[senses == "L"])), "a <= row is violated")
    _require(bool(np.all(lhs[senses == "G"] >= bi[senses == "G"])), "a >= row is violated")
    _require(bool(np.all(x >= np.asarray(lb)) and np.all(x <= np.asarray(ub))),
             "a variable bound is violated")


def milp_objective(c, a, senses, b, lb, ub, incumbent: float | None = None) -> float:
    """Optimal objective of the same integer program, from HiGHS via ``milp``.

    The LP relaxation is solved first.  Its bound is at most the integer
    optimum, which is at most the objective of any integral plan that
    satisfies the rows, so when the bound meets ``incumbent`` (such a
    plan's objective) it is the optimum.  Otherwise the integer program
    is solved in full.
    """
    senses = np.asarray(senses)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lo = np.where(senses == "L", -np.inf, b)
    hi = np.where(senses == "G", np.inf, b)
    rows, bounds = LinearConstraint(a, lo, hi), Bounds(lb, ub)
    if incumbent is not None:
        res = milp(c=c, constraints=rows, bounds=bounds)
        _require(res.status == 0, f"reference LP did not solve: {res.message}")
        if abs(res.fun - incumbent) <= 1e-6 * max(1.0, abs(incumbent)):
            return float(res.fun)
    res = milp(c=c, constraints=rows, integrality=np.ones(len(c)), bounds=bounds)
    _require(res.status == 0, f"reference MILP did not solve: {res.message}")
    return float(res.fun)


def objective_matches(program_obj: float, reference_obj: float) -> None:
    tol = 1e-6 * max(1.0, abs(reference_obj))
    _require(abs(program_obj - reference_obj) <= tol,
             f"objective {program_obj!r} differs from the MILP optimum {reference_obj!r}")


def assignment_is_optimal(vehicle_xy, request_xy, pairs) -> None:
    """``pairs`` is a complete matching of minimum total distance."""
    v = np.asarray(vehicle_xy, dtype=float).reshape(-1, 2)
    r = np.asarray(request_xy, dtype=float).reshape(-1, 2)
    cost = np.hypot(v[:, None, 0] - r[None, :, 0], v[:, None, 1] - r[None, :, 1])
    pairs = list(pairs)
    _require(len(pairs) == min(cost.shape), "matching is not complete")
    rows = [p[0] for p in pairs]
    cols = [p[1] for p in pairs]
    _require(len(set(rows)) == len(rows) and len(set(cols)) == len(cols),
             "a vehicle or request is matched twice")
    ref_r, ref_c = linear_sum_assignment(cost)
    got = float(cost[rows, cols].sum())
    ref = float(cost[ref_r, ref_c].sum())
    _require(abs(got - ref) <= 1e-6 * max(1.0, ref),
             f"matching distance {got!r} exceeds the optimum {ref!r}")


def requests_conserved(requests: int, served: int, assigned_end: int, waiting_end: int) -> None:
    _require(served + assigned_end + waiting_end == requests,
             f"served {served} + assigned {assigned_end} + waiting {waiting_end}"
             f" != requests {requests}")


def legs_sum_to_fleet(leg_counts: dict, fleet: int) -> None:
    _require(sum(leg_counts.values()) == fleet,
             f"leg counts {leg_counts} do not sum to the fleet of {fleet}")


def selftest() -> None:
    """Each check accepts a correct output and rejects a corrupted one."""

    def rejects(check, *args) -> None:
        try:
            check(*args)
        except CheckFailed:
            return
        raise AssertionError(f"{check.__name__} accepted a corrupted output")

    # min x0 + 2 x1  s.t.  x0 + x1 = 3,  x0 <= 2,  x >= 0 integer: x = (2, 1).
    a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    senses, b = ["E", "L"], np.array([3.0, 2.0])
    lb, ub = np.zeros(2), np.full(2, np.inf)
    c = np.array([1.0, 2.0])
    rows_hold(a, senses, b, lb, ub, [2.0, 1.0])
    rejects(rows_hold, a, senses, b, lb, ub, [3.0, 1.0])     # breaks the equality
    rejects(rows_hold, a, senses, b, lb, ub, [2.5, 0.5])     # not integral
    ref = milp_objective(c, a, senses, b, lb, ub)
    objective_matches(4.0, ref)
    rejects(objective_matches, 5.0, ref)
    # The relaxation bound meets a true incumbent, so it is the optimum ...
    objective_matches(4.0, milp_objective(c, a, senses, b, lb, ub, incumbent=4.0))
    # ... but not a false one, which the full solve then exposes.
    rejects(objective_matches, 5.0, milp_objective(c, a, senses, b, lb, ub, incumbent=5.0))
    # max x0 + x1 s.t. 2 x0 + 2 x1 <= 3: the relaxation (1.5) stops short of
    # the integer optimum (1), so only the full solve can confirm it.
    half = sparse.csr_matrix(np.array([[2.0, 2.0]]))
    frac = milp_objective(-np.ones(2), half, ["L"], [3.0], lb, ub, incumbent=-1.0)
    objective_matches(-1.0, frac)
    rejects(objective_matches, -1.5, frac)

    vehicles = np.array([[0.0, 0.0], [10.0, 0.0]])
    requests = np.array([[9.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
    assignment_is_optimal(vehicles, requests, [(0, 1), (1, 0)])
    rejects(assignment_is_optimal, vehicles, requests, [(0, 0), (1, 1)])  # longer
    rejects(assignment_is_optimal, vehicles, requests, [(0, 1)])          # incomplete
    rejects(assignment_is_optimal, vehicles, requests, [(0, 1), (1, 1)])  # double

    requests_conserved(10, 7, 2, 1)
    rejects(requests_conserved, 10, 7, 2, 2)
    legs_sum_to_fleet({"idle": 3, "pickup": 1, "customer": 0, "rebalance": 1}, 5)
    rejects(legs_sum_to_fleet, {"idle": 3, "pickup": 1, "customer": 0, "rebalance": 0}, 5)
