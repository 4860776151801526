"""The integer program solver: canonical root LP, then HiGHS MILP when fractional."""

import itertools
import json
import sys
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
from amodcc.mpc import CostWeights, build_problem, quantile_demand
from amodcc.network import FleetState, StationNetwork
from amodcc.sim import DemandGrid, benchmark_network, benchmark_scenario, initial_placement

DATA = Path(__file__).parent / "data"


def make_problem(c, a, b, lb=None, ub=None, pivots=None, dependent=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return IlpProblem(
        c=c,
        a=sparse.csr_matrix(np.asarray(a, dtype=float)),
        b=np.asarray(b, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        pivots=pivots,
        dependent=dependent,
    )


def with_slacks(c, a, b, signs, ub=None):
    """The problem with a row a[i] x <= b[i] where signs[i] is 1, >= where it
    is -1 and = where it is 0, in equality form: the structural columns,
    then one zero-cost slack per inequality row, entering it with its sign.
    The rows fix each slack, so the slacks are dependent columns."""
    a = np.asarray(a, dtype=float)
    n_rows, n = a.shape
    rows = np.flatnonzero(signs)
    slacks = np.zeros((n_rows, rows.size))
    slacks[rows, np.arange(rows.size)] = np.asarray(signs)[rows]
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    return make_problem(np.concatenate([c, np.zeros(rows.size)]), np.hstack([a, slacks]), b,
                        ub=np.concatenate([ub, np.full(rows.size, np.inf)]),
                        dependent=n + np.arange(rows.size))


def random_problem(rng, n_vars, n_rows, box=4):
    """Random bounded ILP with <=, >= and = rows; box bounds on the
    structural columns keep brute force cheap."""
    a = rng.integers(-3, 4, size=(n_rows, n_vars)).astype(float)
    x_feas = rng.integers(0, box + 1, size=n_vars)
    signs = np.array([(1, -1, 0)[int(rng.integers(0, 3))] for _ in range(n_rows)])
    slack = rng.integers(0, 3, size=n_rows)
    b = a @ x_feas + signs * slack
    c = rng.integers(-5, 6, size=n_vars).astype(float)
    return with_slacks(c, a, b, signs, ub=np.full(n_vars, float(box)))


def brute_force_optimum(prob, box):
    """The optimum over every structural point in the box, each with the
    slacks its rows imply: a slack column has one entry, of +1 or -1."""
    dense = prob.a.toarray()
    n = prob.n_vars - prob.dependent.size
    structural, slacks = dense[:, :n], dense[:, n:]
    best = None
    for point in itertools.product(range(box + 1), repeat=n):
        x = np.array(point, dtype=float)
        x = np.concatenate([x, slacks.T @ (prob.b - structural @ x)])
        if (np.all(np.abs(dense @ x - prob.b) <= 1e-9) and np.all(x >= prob.lb)
                and np.all(x <= prob.ub)):
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


def step76_inputs():
    """Control step 76 of the seed-0 benchmark day: its program and inputs."""
    rec = json.loads((DATA / "seed0_step76.json").read_text())
    net = benchmark_network()
    demand = np.array(rec["demand"])
    horizon = demand.shape[2] - 1
    program = build_problem(net, horizon, CostWeights.defaults(net, horizon))
    state = FleetState(np.array(rec["idle"]), [tuple(a) for a in rec["arrivals"]])
    return program, state, np.array(rec["outstanding"]), demand


def recorded_step76():
    """Control step 76 of the seed-0 benchmark day, from its recorded inputs."""
    program, state, outstanding, demand = step76_inputs()
    return program.problem(state, outstanding, demand)


def linprog_root(prob, integral=False):
    """The root LP through ``linprog``; with ``integral``, the integer
    program's optimum instead."""
    res = linprog(prob.c, A_eq=prob.a, b_eq=prob.b,
                  bounds=np.column_stack([prob.lb, prob.ub]), method="highs",
                  integrality=np.full(prob.n_vars, int(integral)))
    assert res.status == 0
    return res.x


class TestBranchAndBound:
    def test_zero_problem(self):
        prob = with_slacks([1.0, 1.0], [[1.0, 1.0]], [0.0], [1], ub=[5.0, 5.0])
        sol = solve_ilp(prob)
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        assert np.all(sol.x == 0)

    def test_knapsack_needs_branching(self):
        # LP optimum is fractional; integer optimum differs.
        prob = with_slacks([-5.0, -4.0], [[6.0, 5.0], [1.0, 2.0]], [14.0, 4.0], [1, 1],
                           ub=[10.0, 10.0])
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
        prob = with_slacks([1.0], [[1.0], [1.0]], [1.0, 3.0], [1, -1], ub=[10.0])
        with pytest.raises(InfeasibleError):
            solve_ilp(prob)

    def test_integrality_forced_infeasible(self):
        # 2x = 1 is LP-feasible at x=0.5 but has no integer point.
        prob = make_problem([1.0], [[2.0]], [1.0], ub=[10.0])
        with pytest.raises(InfeasibleError):
            solve_ilp(prob)

    def test_time_limit_raises_instead_of_returning_incumbent(self):
        # The root LP is fractional, so the MILP runs; with a nanosecond
        # (a zero limit is invalid input) it stops before any point, and
        # the stop is an error, not a plan.
        prob = with_slacks([-5.0, -4.0], [[6.0, 5.0], [1.0, 2.0]], [14.0, 4.0], [1, 1],
                           ub=[10.0, 10.0])
        with pytest.raises(SolverError, match="time limit"):
            solve_ilp(prob, SolverConfig(time_limit_s=1e-9))

    def test_unbounded_relaxation_raises(self):
        # min -x with x <= y: the relaxation runs off to infinity.
        prob = with_slacks([-1.0, 0.0], [[1.0, -1.0]], [0.0], [1])
        with pytest.raises(SolverError, match="unbounded"):
            solve_ilp(prob)

    def test_root_infeasible_raises(self):
        # x + y = 3 and x + y <= 1 have no point, fractional or not.
        prob = with_slacks([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [3.0, 1.0], [0, 1])
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
                make_problem(c, a, b)
        prob = make_problem(*good)
        with pytest.raises(InvalidInputError, match="finite"):
            prob.with_rhs(np.array([bad, 0.0]))

    def test_rejects_nan_upper_bound(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            make_problem([1.0], [[1.0]], [1.0], ub=[np.nan])

    # [0, -1] would name the slack of row 1, which an equality row does not have.
    @pytest.mark.parametrize("pivots", [[0], [0, 1, -1], [2, -1], [-2, 0], [1, 1], [0, -1]])
    def test_rejects_pivots_that_are_not_one_distinct_column_per_row(self, pivots):
        fields = dict(c=np.ones(2), a=sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]])),
                      b=np.array([2.0, 0.0]), lb=np.zeros(2), ub=np.full(2, np.inf))
        assert solve_ilp(IlpProblem(**fields, pivots=[1, 0])).objective == 2.0
        with pytest.raises(InvalidInputError, match="pivots"):
            IlpProblem(**fields, pivots=pivots)

    @pytest.mark.parametrize("dependent", [[-1], [2], [0, 2]])
    def test_rejects_dependent_columns_that_are_not_column_ids(self, dependent):
        fields = dict(c=np.ones(2), a=sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]])),
                      b=np.array([2.0, 0.0]), lb=np.zeros(2), ub=np.full(2, np.inf))
        prob = IlpProblem(**fields, dependent=[1])
        assert prob.root.tie_cost[1] == 0.0 < prob.root.tie_cost[0]
        assert solve_ilp(prob).objective == 2.0
        with pytest.raises(InvalidInputError, match="dependent"):
            IlpProblem(**fields, dependent=dependent)


def cold(prob):
    """The root vertex solved from scratch, as a one-shot solve would: the
    program's loaded HiGHS handles are dropped first."""
    prob.root.drop()
    return _solve_root(prob)[0]


def warm(prob, other):
    """The root vertex solved on the handles another instant's cold solve left."""
    cold(other)
    return _solve_root(prob)[0]


def step76_instants():
    """The recorded step 76, paired with the same instant at half its demand."""
    program, state, outstanding, demand = step76_inputs()
    return [(program.problem(state, outstanding, demand),
             program.problem(state, outstanding, demand // 2))]


def random_instants():
    """Each random problem, paired with the same rows at another planted point."""
    rng = np.random.default_rng(34)
    out = []
    for prob in random_problems():
        x = rng.integers(0, 4, size=prob.n_vars)
        out.append((prob, prob.with_rhs(prob.a @ x)))
    return out


def period_instants(seed0_period):
    """The seed-0 period's instants that reach the solver, each paired with
    the one before it, whose basis a run would start from."""
    _, instants = seed0_period
    probs = [program.problem(state, outstanding, demand)
             for program, state, outstanding, demand, plan in instants if plan.nodes]
    assert len(probs) == 8
    return list(zip(probs, probs[-1:] + probs[:-1]))


@pytest.fixture(params=["step76", "random", "period"])
def instants(request):
    if request.param == "period":
        return period_instants(request.getfixturevalue("seed0_period"))
    return {"step76": step76_instants, "random": random_instants}[request.param]()


def same_vertex(x, y):
    return np.allclose(x, y, rtol=0.0, atol=1e-9)


class TestCanonicalRoot:
    """The root LP returns one vertex per instant, whatever basis it starts from.

    A solve starts on the handles the program's last solved instant left,
    and then breaks ties among optima by a fixed generic cost over the
    optimal face.  So a cold solve, a solve warm-started on another
    instant's handles and solves on threads sharing one program all
    return the same point, and its objective is ``linprog``'s optimum.
    """

    def test_objective_is_linprogs_optimum(self, instants):
        for prob, _ in instants:
            want = float(prob.c @ linprog_root(prob))
            assert abs(float(prob.c @ cold(prob)) - want) <= 1e-9 * max(1.0, abs(want))

    def test_warm_start_from_another_instant_gives_the_cold_vertex(self, instants):
        for prob, other in instants:
            assert same_vertex(warm(prob, other), cold(prob))

    def test_threads_sharing_a_program_get_the_cold_vertex(self, instants, monkeypatch):
        # Solves on many threads each see their own right-hand side on the
        # shared handles, never another's, and start from whatever state
        # another thread left there.  A pause inside every HiGHS run lets
        # other threads run between a solve's bound changes and its reads.
        class SlowRun:
            def __init__(self):
                self.highs = real._Highs()

            def run(self):
                time.sleep(1e-4)
                return self.highs.run()

            def __getattr__(self, name):
                return getattr(self.highs, name)

        probs = [prob for pair in instants for prob in pair]
        want = [cold(prob) for prob in probs]
        # Distinct vertices, so a thread that read another's bounds would show.
        assert len({np.round(x).tobytes() for x in want}) > max(1, len(instants) // 2)
        real = ilp._highs
        monkeypatch.setattr(ilp, "_highs", types.SimpleNamespace(**{**vars(real), "_Highs": SlowRun}))
        for prob in probs:    # so that every handle is loaded through the pause
            prob.root.drop()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_solve_root, prob) for prob in probs * 3]
                got = [f.result(timeout=120)[0] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for x, expected in zip(got, want * 3):
            assert same_vertex(x, expected)

    def test_threads_sharing_a_program_share_its_certified_instants(self, seed0_period):
        # The golden period's 24 instants, 16 certified and 8 solved, on
        # threads sharing one program: each gets what it gets alone.
        _, instants = seed0_period
        probs = [program.problem(state, outstanding, demand)
                 for program, state, outstanding, demand, _ in instants]
        assert len({prob.root for prob in probs}) == 1
        want = [solve_ilp(prob) for prob in probs]
        assert [sol.nodes == 0 for sol in want].count(True) == 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(solve_ilp, prob) for prob in probs * 3]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for sol, expected in zip(got, want * 3):
            assert sol.nodes == expected.nodes
            assert np.array_equal(sol.x, expected.x)

    def test_duals_alone_say_what_is_nonbasic_and_at_which_bound(self, instants):
        # The tie-break reads its pins off the duals alone.  That holds
        # because HiGHS reports an exact zero dual for every basic column and
        # row, and an optimum puts a column with a positive reduced cost at
        # its lower bound and one with a negative reduced cost at its upper.
        for prob, _ in instants:
            cold(prob)
            lp = prob.root.lp.highs
            sol = lp.getSolution()
            x, d, y = (np.asarray(v) for v in (sol.col_value, sol.col_dual, sol.row_dual))
            basic = lp.getBasicVariables()[1]
            assert np.all(d[basic[basic >= 0]] == 0.0)
            assert np.all(y[-1 - basic[basic < 0]] == 0.0)
            tol = prob.root.dual_tol
            assert np.array_equal(x[d > tol], prob.lb[d > tol])
            assert np.array_equal(x[d < -tol], prob.ub[d < -tol])

    def test_instants_in_order_and_reversed_get_their_cold_vertices(self, seed0_period):
        # One program solves the seed-0 period's solver instants in run
        # order and then backwards, each on the handles the one before
        # left: its row bounds, basis and factor, and the face's pins.
        # No solve falls back to fresh handles, which would hide a stale one.
        probs = [prob for prob, _ in period_instants(seed0_period)]
        root = probs[0].root
        assert all(prob.root is root for prob in probs)
        want = [cold(prob) for prob in probs]
        root.drop()
        _solve_root(probs[0])
        handles = root.lp, root.face
        for prob, expected in zip(probs + probs[::-1], want + want[::-1]):
            assert same_vertex(_solve_root(prob)[0], expected)
            assert (root.lp, root.face) == handles

    def test_an_infeasible_instant_leaves_the_program_cold(self):
        # A right-hand side with no point raises and drops the program's
        # handles, and the next instant still gets its cold vertex.
        (prob, other), = step76_instants()
        want = cold(other)
        b = prob.b.copy()
        n, _, steps = step76_inputs()[3].shape
        # Station 0's opening balance row, after the N*N first-step and
        # N*N*T queue rows: its stock below zero.
        b[n * n * steps] = -1.0
        cold(prob)
        with pytest.raises(InfeasibleError):
            _solve_root(prob.with_rhs(b))
        assert prob.root.lp is None and prob.root.face is None
        assert same_vertex(_solve_root(other)[0], want)

    def test_tied_optima_resolve_to_one_vertex(self):
        # min x0 + x1 subject to x0 + x1 >= 3, x0 <= u0, x1 <= u1, each row
        # with its slack.  With u = (3, 3) every split of 3 is optimal.
        # Warm starts from the bases of the two ends of that face, and a
        # cold start, all meet at the same end.
        base = with_slacks([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [3.0, 3.0, 3.0],
                           [-1, 1, 1])
        ends = [base.with_rhs(np.array([3.0, u0, u1])) for u0, u1 in ((0.0, 3.0), (3.0, 0.0))]
        assert [tuple(cold(p)[:2]) for p in ends] == [(0.0, 3.0), (3.0, 0.0)]
        x = [warm(base, end) for end in ends] + [cold(base)]
        assert tuple(x[2][:2]) in {(0.0, 3.0), (3.0, 0.0)}
        assert same_vertex(x[0], x[2]) and same_vertex(x[1], x[2])

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_cost_gap_at_dual_noise_level_is_a_tie(self, scale):
        # min c0 x0 + c1 x1 subject to x0 + x1 = 3: the cheaper column
        # takes everything.  A gap of 1e-12 of the largest cost is below
        # any dual the solver can resolve, so the two columns count as
        # tied and the vertex must not follow the sign of the gap.
        gap = 1e-12 * scale
        x = [cold(make_problem([scale, scale + sign * gap], [[1.0, 1.0]], [3.0]))
             for sign in (1.0, -1.0)]
        assert tuple(x[0]) in {(0.0, 3.0), (3.0, 0.0)}
        assert tuple(x[0]) == tuple(x[1])

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_cost_gap_above_the_dual_tolerance_is_priced(self, scale):
        # The same face with a gap 10 times the tolerance: the cheaper
        # column wins, whatever the generic cost prefers, warm or cold.
        # The row x0 <= u0, with its slack, gives the warm start another
        # instant, where u0 = 0 leaves x0 out.
        gap = 10 * ilp._DUAL_TOL * scale
        for sign, want in ((1.0, (3.0, 0.0)), (-1.0, (0.0, 3.0))):
            prob = with_slacks([scale, scale + sign * gap], [[1.0, 1.0], [1.0, 0.0]], [3.0, 3.0],
                               [0, 1])
            other = prob.with_rhs(np.array([3.0, 0.0]))
            assert tuple(cold(prob)[:2]) == want
            assert tuple(warm(prob, other)[:2]) == want

    def test_a_failed_tie_break_falls_back_to_the_cold_vertex(self, monkeypatch):
        # If the tie-break solve never reaches an optimum, the root LP is
        # solved again from scratch and that vertex is returned, not an
        # error, from a warm start as from a cold one.  The next instant,
        # with the tie-break working again, gets its own cold vertex.
        (prob, other), = step76_instants()
        want_next = cold(other)
        monkeypatch.setattr(ilp, "_canonical", lambda *args: (None, 0))
        want = float(prob.c @ linprog_root(prob))
        x = cold(prob)
        assert abs(float(prob.c @ x) - want) <= 1e-9 * abs(want)
        assert same_vertex(warm(prob, other), x)
        monkeypatch.undo()
        assert same_vertex(_solve_root(other)[0], want_next)


def weighted_step76(kind):
    """Step 76 under the default weights, or with every pickup priced from
    step 0 on, or with free empty moves."""
    _, state, outstanding, demand = step76_inputs()
    net = benchmark_network()
    horizon = demand.shape[2] - 1
    w = CostWeights.defaults(net, horizon)
    if kind == "priced step-0 pickups":
        w.pickup_delay = w.pickup_delay + 0.5
    elif kind == "free moves":
        w.rebalance = np.zeros_like(w.rebalance)
    return build_problem(net, horizon, w).problem(state, outstanding, demand)


def city20_instant():
    """The 08:00 instant of a 20-station city: a 5 x 4 grid jittered by up
    to 500 m over the benchmark's 10 km square and seed-0 trips, 300
    vehicles placed by the day before, and the hour's realized demand."""
    jitter = np.random.default_rng(0).uniform(-500.0, 500.0, (20, 2))
    gx, gy = np.meshgrid(np.linspace(1000.0, 9000.0, 5), np.linspace(1000.0, 9000.0, 4))
    net = StationNetwork.from_centroids(np.column_stack([gx.ravel(), gy.ravel()]) + jitter,
                                        speed_mps=10.0, step_seconds=900.0)
    sc = benchmark_scenario(0, history_days=1.0, sim_days=1.0)
    horizon = 12
    history = DemandGrid(sc.trips, net, sc.sim_start - 86_400.0, 900.0, 96)
    idle = np.bincount(initial_placement(net, 300, history), minlength=20)
    live = DemandGrid(sc.trips, net, sc.sim_start + 8 * 3600.0, 900.0, horizon + 1)
    demand = quantile_demand(live.counts, 0.0, 0.5)
    demand[:, :, 0] = 0
    program = build_problem(net, horizon, CostWeights.defaults(net, horizon))
    return program.problem(FleetState(idle=idle), np.zeros((20, 20), dtype=int), demand)


class TestColdBasis:
    """A cold root LP starts at the basis of the instant's zero-cost plan.

    Per row, that plan's customer trip, stock or step-0 pickup is basic.
    The basis is dual feasible for any valid weights, so dual simplex only
    repairs the stocks that plan drives below zero.
    """

    @pytest.mark.parametrize("kind", ["default", "priced step-0 pickups", "free moves"])
    def test_the_cold_basis_is_dual_feasible_and_reaches_linprogs_optimum(self, kind):
        prob = weighted_step76(kind)
        basis = prob.a[:, prob.pivots].toarray()
        y = np.linalg.solve(basis.T, prob.c[prob.pivots])
        assert np.all(prob.c - prob.a.T @ y >= -1e-12)
        want = float(prob.c @ linprog_root(prob))
        assert abs(float(prob.c @ cold(prob)) - want) <= 1e-9 * abs(want)

    def test_a_certified_instant_is_optimal_at_the_cold_basis(self, seed0_period):
        # The certificate is the cold basis's own solution: where it holds,
        # the cold root LP has nothing to repair or break.
        _, instants = seed0_period
        certified = 0
        for program, state, outstanding, demand, plan in instants:
            if plan.nodes:
                continue
            prob = program.problem(state, outstanding, demand)
            want = solve_ilp(prob)
            assert want.nodes == 0
            prob.root.drop()
            x, iterations = _solve_root(prob)
            assert iterations == 0
            assert np.array_equal(np.round(x), want.x)
            certified += 1
        assert certified == 16

    def test_the_golden_periods_first_solver_instant_starts_near_its_optimum(
            self, seed0_period):
        # 1,100 iterations from the basis with only the stocks basic.
        (prob, _), *_ = period_instants(seed0_period)
        prob.root.drop()
        assert _solve_root(prob)[1] < 100

    def test_a_twenty_station_instant_solves_cold_in_few_iterations(self):
        # 3,345 iterations from the basis with only the stocks basic.
        prob = city20_instant()
        assert _solve_root(prob)[1] < 2000


# Hand-built programs with a pivot per row, whether the pivots' basis is
# kept as strictly optimal, and whether the instant certifies.  Most
# share the rows x0 + x1 = 3, x2 - x1 = 1 and the basis {x0, x2}, where
# x1 prices at c1 - c0 + c2.  The last two have the row x0 + x1 + s = 3,
# with a zero-cost slack s off the basis {x0}, where s prices at -c0.
ROWS = dict(a=[[1, 1, 0], [0, -1, 1]], b=[3.0, 1.0], pivots=[0, 2])
SLACK_ROW = dict(a=[[1, 1, 1]], b=[3.0], pivots=[0])
CERTIFICATE_CASES = {
    "strictly optimal and feasible": (dict(ROWS, c=[1.0, 2.0, 3.0]), True, True),
    "a column off the basis at a positive lower bound":
        (dict(ROWS, c=[1.0, 2.0, 3.0], lb=[0.0, 1.0, 0.0]), True, True),
    "one zero reduced cost": (dict(ROWS, c=[1.0, -2.0, 3.0]), False, False),
    "a negative basic value": (dict(ROWS, c=[1.0, 2.0, 3.0], b=[3.0, -1.0]), True, False),
    "a basic value above its upper bound":
        (dict(ROWS, c=[1.0, 2.0, 3.0], ub=[2.0, np.inf, np.inf]), True, False),
    "singular pivots":
        (dict(c=[1.0, 2.0, 3.0, 1.5], a=[[1, 1, 0, 1], [0, -1, 1, 0]], b=[3.0, 1.0],
              pivots=[0, 3]), False, False),
    "a fractional basic solution":
        (dict(ROWS, c=[1.0, 2.0, 3.0], a=[[2, 1, 0], [0, -1, 1]]), True, False),
    "an off-basis slack with a negative reduced cost":
        (dict(SLACK_ROW, c=[1.0, 2.0, 0.0]), False, False),
    "an off-basis slack with a positive reduced cost":
        (dict(SLACK_ROW, c=[-1.0, 2.0, 0.0]), True, True),
}


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_the_pivots_basis_certifies_only_when_feasible_strictly_optimal_and_integral(case):
    # A certified instant returns the basis's own solution with no solver
    # run; every other instant goes to the root LP and the MILP, and each
    # reaches linprog's integer optimum.
    kwargs, kept, certifies = CERTIFICATE_CASES[case]
    prob = make_problem(**kwargs)
    assert (prob.root.basis is not None) == kept
    sol = solve_ilp(prob)
    assert (sol.nodes == 0) == certifies
    want = linprog_root(prob, integral=True)
    assert sol.objective == pytest.approx(float(prob.c @ want), abs=1e-9)
    if certifies:
        assert sol.iterations == 0
        assert np.array_equal(sol.x, np.round(want))
