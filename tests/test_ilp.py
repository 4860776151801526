"""The integer program solver: root LP, then HiGHS MILP when fractional."""

import itertools
import json
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from amodcc import ilp
from amodcc.errors import InfeasibleError, InvalidInputError, SolverError
from amodcc.ilp import IlpProblem, SolverConfig, _solve_root, solve_ilp
from amodcc.mpc import CostWeights, build_problem
from amodcc.network import FleetState
from amodcc.sim import benchmark_network

DATA = Path(__file__).parent / "data"


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


def random_problems():
    """The 60 random problems of the brute-force test, in its order."""
    rng = np.random.default_rng(12)
    for _ in range(60):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        yield random_problem(rng, n, m, box=3)


def recorded_step76():
    """Control step 76 of the seed-0 benchmark day, from its recorded inputs."""
    rec = json.loads((DATA / "seed0_step76.json").read_text())
    net = benchmark_network()
    demand = np.array(rec["demand"])
    horizon = demand.shape[2] - 1
    program = build_problem(net, horizon, CostWeights.defaults(net, horizon))
    state = FleetState(np.array(rec["idle"]), [tuple(a) for a in rec["arrivals"]])
    return program.problem(state, np.array(rec["outstanding"]), demand)


def linprog_root(prob):
    """The root LP through ``linprog``: "L" rows, negated "G" rows, "E" rows."""
    senses = np.asarray(prob.senses)
    le, ge, eq = (np.flatnonzero(senses == s) for s in ("L", "G", "E"))
    ub_rows = le.size + ge.size > 0
    res = linprog(prob.c,
                  A_ub=sparse.vstack([prob.a[le], -prob.a[ge]]) if ub_rows else None,
                  b_ub=np.concatenate([prob.b[le], -prob.b[ge]]) if ub_rows else None,
                  A_eq=prob.a[eq] if eq.size else None,
                  b_eq=prob.b[eq] if eq.size else None,
                  bounds=np.column_stack([prob.lb, prob.ub]), method="highs")
    assert res.status == 0
    return res.x


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
        checked = 0
        for prob in random_problems():
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

    def test_unbounded_relaxation_raises(self):
        # min -x with x <= y: the relaxation runs off to infinity.
        prob = make_problem([-1.0, 0.0], [[1.0, -1.0]], ["L"], [0.0])
        with pytest.raises(SolverError, match="unbounded"):
            solve_ilp(prob)

    def test_root_infeasible_raises(self):
        # x + y = 3 and x + y <= 1 have no point, fractional or not.
        prob = make_problem([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], ["E", "L"],
                            [3.0, 1.0])
        with pytest.raises(InfeasibleError):
            solve_ilp(prob)


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_costs_rows_and_rhs(self, bad):
        good = (np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([4.0, 0.0]))
        for k, where in ((0, 0), (1, (1, 0)), (2, 1)):
            c, a, b = (v.copy() for v in good)
            (c, a, b)[k][where] = bad
            with pytest.raises(InvalidInputError, match="finite"):
                make_problem(c, a, "LG", b)
        prob = make_problem(good[0], good[1], "LG", good[2])
        with pytest.raises(InvalidInputError, match="finite"):
            prob.with_rhs(np.array([bad, 0.0]))

    def test_rejects_nan_upper_bound(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            make_problem([1.0], [[1.0]], ["L"], [1.0], ub=[np.nan])


class TestRootVertex:
    """The root LP returns ``linprog(method="highs")``'s vertex, bit for bit.

    Among tied optima the vertex decides the plan, so presolve, the row
    order and the options must stay ``linprog``'s.
    """

    def test_recorded_step_matches_linprog(self):
        prob = recorded_step76()
        assert np.array_equal(_solve_root(prob), linprog_root(prob))

    def test_random_problems_match_linprog(self):
        for prob in random_problems():
            assert np.array_equal(_solve_root(prob), linprog_root(prob))

    def test_threads_sharing_a_model_get_their_own_vertices(self, monkeypatch):
        # Solves of one program's instants on many threads each see their
        # own right-hand side in the shared model, never another's.  A
        # pause inside passModel lets other threads run while the model
        # is being read.
        class SlowPass:
            def __init__(self):
                self.highs = real._Highs()

            def passModel(self, lp):
                time.sleep(1e-4)
                return self.highs.passModel(lp)

            def __getattr__(self, name):
                return getattr(self.highs, name)

        real = ilp._highs
        monkeypatch.setattr(ilp, "_highs", types.SimpleNamespace(**{**vars(real), "_Highs": SlowPass}))
        base = make_problem([-1.0, -2.0], [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                            ["L", "L", "G"], [0.0, 0.0, 0.0], ub=[50.0, 50.0])
        rhs = [np.array([k + 3.0, k % 4, 1.0 + k % 3]) for k in range(12)]
        want = [_solve_root(base.with_rhs(b)) for b in rhs]
        assert len({tuple(x) for x in want}) > 6
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_solve_root, base.with_rhs(b)) for b in rhs * 5]
            got = [f.result(timeout=60) for f in futures]
        for x, expected in zip(got, want * 5):
            assert np.array_equal(x, expected)
