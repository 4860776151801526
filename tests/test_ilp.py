"""The integer program solver: root LP, then HiGHS MILP when fractional."""

import itertools

import numpy as np
import pytest
from scipy import sparse

from amodcc.errors import InfeasibleError, SolverError
from amodcc.ilp import IlpProblem, SolverConfig, solve_ilp


def make_problem(c, a, senses, b, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return IlpProblem(
        c=c,
        a=sparse.csr_matrix(np.asarray(a, dtype=float)),
        senses=list(senses),
        b=np.asarray(b, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
    )


def random_problem(rng, n_vars, n_rows, box=4):
    """Random bounded ILP; box bounds keep brute force cheap."""
    a = rng.integers(-3, 4, size=(n_rows, n_vars)).astype(float)
    x_feas = rng.integers(0, box + 1, size=n_vars)
    senses = [("L", "G", "E")[int(rng.integers(0, 3))] for _ in range(n_rows)]
    slack = rng.integers(0, 3, size=n_rows)
    b = a @ x_feas
    b = b + np.where([s == "L" for s in senses], slack, 0)
    b = b - np.where([s == "G" for s in senses], slack, 0)
    c = rng.integers(-5, 6, size=n_vars).astype(float)
    return make_problem(c, a, senses, b, ub=np.full(n_vars, float(box)))


def brute_force_optimum(prob, box):
    best = None
    n = prob.n_vars
    dense = prob.a.toarray()
    for point in itertools.product(range(box + 1), repeat=n):
        x = np.array(point, dtype=float)
        ax = dense @ x
        ok = True
        for k, s in enumerate(prob.senses):
            if s == "L" and ax[k] > prob.b[k] + 1e-9:
                ok = False
            elif s == "G" and ax[k] < prob.b[k] - 1e-9:
                ok = False
            elif s == "E" and abs(ax[k] - prob.b[k]) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = float(prob.c @ x)
            if best is None or val < best:
                best = val
    return best


class TestBranchAndBound:
    def test_zero_problem(self):
        prob = make_problem([1.0, 1.0], [[1.0, 1.0]], ["L"], [0.0],
                            ub=[5.0, 5.0])
        sol = solve_ilp(prob)
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        assert np.all(sol.x == 0)

    def test_knapsack_needs_branching(self):
        # LP optimum is fractional; integer optimum differs.
        prob = make_problem(
            c=[-5.0, -4.0], a=[[6.0, 5.0], [1.0, 2.0]],
            senses=["L", "L"], b=[14.0, 4.0], ub=[10.0, 10.0])
        sol = solve_ilp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-10.0)
        assert sol.nodes > 1

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(60):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            prob = random_problem(rng, n, m, box=3)
            want = brute_force_optimum(prob, box=3)
            assert want is not None  # generator plants a feasible point
            sol = solve_ilp(prob)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(want, abs=1e-7)
            checked += 1
        assert checked == 60

    def test_infeasible_raises(self):
        prob = make_problem([1.0], [[1.0], [1.0]], ["L", "G"], [1.0, 3.0],
                            ub=[10.0])
        with pytest.raises(InfeasibleError):
            solve_ilp(prob)

    def test_integrality_forced_infeasible(self):
        # 2x = 1 is LP-feasible at x=0.5 but has no integer point.
        prob = make_problem([1.0], [[2.0]], ["E"], [1.0], ub=[10.0])
        with pytest.raises(InfeasibleError):
            solve_ilp(prob)

    def test_time_limit_raises_instead_of_returning_incumbent(self):
        # The root LP is fractional, so the MILP runs; with no time at all
        # it stops before any point, and the stop is an error, not a plan.
        prob = make_problem(
            c=[-5.0, -4.0], a=[[6.0, 5.0], [1.0, 2.0]],
            senses=["L", "L"], b=[14.0, 4.0], ub=[10.0, 10.0])
        with pytest.raises(SolverError, match="time limit"):
            solve_ilp(prob, SolverConfig(time_limit_s=0.0))
