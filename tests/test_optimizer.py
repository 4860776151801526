"""The rebalancing integer program: structure, solutions, verification."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from amodcc.errors import InvalidInputError, SolverError
from amodcc.ilp import _solve_root, solve_ilp
from amodcc.mpc import (
    BACKLOG,
    CUSTOMER,
    PICKUP,
    REBALANCE,
    CostWeights,
    build_problem,
    columns,
    quantile_demand,
    solve_rebalance,
)
from amodcc.network import FleetState, StationNetwork
from amodcc.sim import benchmark_network

DATA = Path(__file__).parent / "data"


def line_network(n, spacing_m=9000.0, step_seconds=900.0):
    pts = np.array([[i * spacing_m, 0.0] for i in range(n)])
    return StationNetwork.from_centroids(pts, speed_mps=10.0,
                                         step_seconds=step_seconds)


def zero_demand(n, horizon):
    return np.zeros((n, n, horizon + 1), dtype=int)


def reference_optimum(prob):
    """The integer optimum's objective by ``scipy.optimize.milp``."""
    res = milp(c=prob.c, constraints=LinearConstraint(prob.a, prob.b, prob.b),
               integrality=np.ones(prob.n_vars), bounds=Bounds(prob.lb, prob.ub))
    assert res.status == 0
    return res.fun


def plan_vector(plan, net, state):
    """A plan's four tensors and the stocks they leave, as one column vector
    in the program's layout: flows first, then each station's stock per step.
    The stocks are counted here trip by trip, not through the program's rows."""
    n, _, steps = plan.rebalance.shape
    cols = columns(n, steps - 1)
    x = np.zeros(cols.size + n * steps)
    x[cols] = np.stack([plan.rebalance, plan.customer, plan.backlog, plan.pickup])
    moves = plan.rebalance + plan.customer
    inflow = state.arrival_counts(steps - 1)
    inflow[:, 0] += state.idle
    for j, i, k in zip(*np.nonzero(moves)):
        if j != i and k + net.kappa[j, i] < steps:
            inflow[i, k + net.kappa[j, i]] += moves[j, i, k]
    x[cols.size:] = np.cumsum(inflow - moves.sum(axis=1), axis=1).ravel()
    return x


def instant_problem(net, state, out, demand, weights=None):
    """One control instant's full program, from a program built for it."""
    horizon = demand.shape[2] - 1
    weights = weights or CostWeights.defaults(net, horizon)
    return build_problem(net, horizon, weights).problem(state, out, demand)


@st.composite
def small_instants(draw):
    """A 3-4 station network with asymmetric travel steps from 1 to 3, and
    one instant on it: vehicles in transit landing inside and past the
    horizon, waiting requests and demand."""
    n = draw(st.integers(3, 4))
    horizon = draw(st.integers(2, 5))

    def ints(lo, hi, shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size,
                                      max_size=size))).reshape(shape)

    idx = np.arange(n)
    kappa = ints(1, 3, (n, n))
    kappa[idx, idx] = 0
    demand = ints(0, 2, (n, n, horizon + 1))
    demand[idx, idx, :] = 0
    out = ints(0, 2, (n, n))
    out[idx, idx] = 0
    arrivals = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, horizon + 3)),
                             max_size=4))
    state = FleetState(idle=ints(0, 3, (n,)), arrivals=arrivals)
    return dataclasses.replace(line_network(n), kappa=kappa), state, out, demand


class TestQuantileDemand:
    def test_zero_std_is_ceiled_mean(self):
        mean = np.array([[0.0, 2.3], [1.0, 0.0]])
        got = quantile_demand(mean, np.zeros_like(mean), 0.25)
        assert got.tolist() == [[0, 3], [1, 0]]

    def test_half_epsilon_returns_exact_mean(self):
        mean = np.array([[0.0, 4.0], [2.0, 0.0]])
        got = quantile_demand(mean, np.full_like(mean, 1.7), 0.5)
        assert got.tolist() == [[0, 4], [2, 0]]

    def test_small_epsilon_raises_demand(self):
        mean = np.full((2, 2), 3.0)
        lo = quantile_demand(mean, np.ones((2, 2)), 0.45)
        hi = quantile_demand(mean, np.ones((2, 2)), 0.05)
        assert np.all(hi >= lo)
        assert hi[0, 1] > 3

    def test_large_epsilon_lowers_demand_and_clamps(self):
        mean = np.full((2, 2), 0.4)
        got = quantile_demand(mean, np.ones((2, 2)), 0.9)
        assert np.all(got == 0)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(3)
        mean = rng.uniform(0, 5, size=(4, 4))
        std = rng.uniform(0, 2, size=(4, 4))
        eps = [0.1, 0.25, 0.5, 0.75, 0.9]
        tensors = [quantile_demand(mean, std, e) for e in eps]
        for a, b in zip(tensors, tensors[1:]):
            assert np.all(a >= b)

    def test_snap_avoids_phantom_unit(self):
        # An exact integer quantile must not ceil to the next integer,
        # even when floating-point puts it a hair above.
        got = quantile_demand(np.array([3.0000000000001]), np.array([0.0]), 0.5)
        assert got.tolist() == [3]

    def test_diagonal_zeroed(self):
        got = quantile_demand(np.full((3, 3), 5.0), np.zeros((3, 3)), 0.5)
        assert np.all(np.diag(got) == 0)

    def test_rejects_bad_epsilon(self):
        # 1e-17: 1 - epsilon rounds to 1, whose quantile is infinite.
        for eps in (0.0, 1.0, -0.5, -0.1, 1.1, 1.5, 1e-17, float("nan")):
            with pytest.raises(InvalidInputError, match="epsilon"):
                quantile_demand(np.ones((2, 2)), np.zeros((2, 2)), eps)

    @pytest.mark.parametrize("eps, z", [(0.025, 1.959963985), (1.0 - 0.841344746, 1.0),
                                        (0.95, -1.644853627)],
                             ids=["p0.975", "p0.841344746", "p0.05"])
    def test_reference_quantiles(self, eps, z):
        # Phi^-1(1 - eps) = z to 1e-8: a mean just under 5 - z plans 5,
        # one just over plans 6.
        got = quantile_demand(np.array([5.0 - z - 1e-8, 5.0 - z + 1e-8]), 1.0, eps)
        assert got.tolist() == [5, 6]

    def test_quantile_is_mean_plus_std_times_z(self):
        # Phi^-1(0.975) = 1.96 and Phi^-1(0.8) = 0.84: 0 + 1.96, 3 + 1.68, 3 + 0.
        assert quantile_demand(np.array([0.0]), np.array([1.0]), 0.025).tolist() == [2]
        got = quantile_demand(np.array([3.0, 3.0]), np.array([2.0, 0.0]), 0.2)
        assert got.tolist() == [5, 3]

    def test_strictly_monotone_on_a_fine_sweep(self):
        # A std of 1e6 turns every step of Phi^-1 between neighbouring
        # levels into thousands of requests.
        levels = [quantile_demand(np.array([1e7]), np.array([1e6]), e)[0]
                  for e in np.linspace(0.001, 0.999, 200)]
        assert np.all(np.diff(levels) < 0)

    def test_median_adds_exactly_zero(self):
        # Phi^-1(0.5) is an exact zero: even a std of 1e300 leaves the mean.
        assert quantile_demand(np.array([2.5]), np.array([1e300]), 0.5).tolist() == [3]

    def test_mirrored_risk_levels_straddle_the_mean(self):
        for eps in (0.01, 0.2, 0.35, 0.49):
            lo, hi = (quantile_demand(np.array([10.0]), np.array([1.0]), e)[0]
                      for e in (1.0 - eps, eps))
            assert lo + hi == 21 and lo <= 10 < hi

    @pytest.mark.parametrize("std", [-1e-12, -1.0, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_std(self, std):
        with pytest.raises(InvalidInputError, match="std"):
            quantile_demand(np.full((2, 2), 3.0), np.full((2, 2), std), 0.35)

    @pytest.mark.parametrize("mean, std", [(float("nan"), 0.0), (float("inf"), 0.0),
                                           (-float("inf"), 0.0), (1e30, 0.0),
                                           (2.0 ** 53 + 2.0, 0.0), (1.0, 1e30)])
    def test_rejects_non_finite_or_inexact_quantile(self, mean, std):
        # No such cell has an exact integer count: it is refused, not cast
        # (a NaN, inf or 1e30 mean used to read INT64_MIN, with a warning).
        means, stds = np.ones((2, 2, 3)), np.zeros((2, 2, 3))
        means[0, 1, 2], stds[0, 1, 2] = mean, std
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="mean"):
                quantile_demand(means, stds, 0.35)

    def test_quantile_of_2_pow_53_is_kept(self):
        got = quantile_demand(np.array([2.0 ** 53]), np.array([0.0]), 0.35)
        assert got.tolist() == [2 ** 53]


class TestCostWeights:
    def test_defaults_shapes(self):
        net = line_network(3)
        w = CostWeights.defaults(net, horizon=4)
        reb, backlog, pickup = w.expanded(3, 4)
        assert reb.shape == (3, 3, 5)
        assert np.allclose(reb[:, :, 0], net.travel_distance / 1000.0)
        assert np.all(backlog == 10.0)
        assert pickup.tolist() == [0.0, 0.1, 0.2, pytest.approx(0.3), 0.4]

    def test_pickup_must_be_non_decreasing(self):
        net = line_network(2)
        w = CostWeights(rebalance=net.travel_distance / 1000.0,
                        backlog=np.ones(3),
                        pickup_delay=np.array([0.0, 2.0, 1.0]))
        with pytest.raises(InvalidInputError):
            w.expanded(2, 2)

    def test_backlog_must_be_positive(self):
        net = line_network(2)
        w = CostWeights(rebalance=net.travel_distance / 1000.0,
                        backlog=np.zeros(3),
                        pickup_delay=np.zeros(3))
        with pytest.raises(InvalidInputError):
            w.expanded(2, 2)


class TestBuildProblem:
    def test_variable_count(self):
        n, horizon = 10, 12
        net = line_network(n, spacing_m=2000.0)
        state = FleetState(idle=np.full(n, 3))
        prob = instant_problem(net, state, np.zeros((n, n), dtype=int),
                               zero_demand(n, horizon))
        # Four flow tensors, then one stock per station and step.
        assert prob.n_vars == 4 * n * n * (horizon + 1) + n * (horizon + 1) == 5330

    def test_flow_columns_keep_their_tie_costs_and_stocks_have_none(self):
        # The stock columns come after the flows, so each flow column keeps
        # the generic tie cost it drew when the flows were all the columns.
        # A stock is fixed by the flows, so it gets no tie cost of its own.
        # The cold basis is the zero-cost plan's: per row, in row order, the
        # first-step customer trip, the queue row's customer trip, the stock
        # and the step-0 pickup.
        n, horizon = 10, 12
        net = line_network(n, spacing_m=2000.0)
        prob = build_problem(net, horizon, CostWeights.defaults(net, horizon)).base
        x = columns(n, horizon)
        flows = x.size
        tie = prob.root.tie_cost
        stocks = np.arange(flows, tie.size)
        assert np.array_equal(tie[:flows], np.random.default_rng(0).uniform(1.0, 2.0, flows))
        assert np.all(tie[flows:] == 0.0) and stocks.size == n * (horizon + 1)
        assert np.array_equal(prob.dependent, stocks)
        assert np.array_equal(prob.pivots, np.concatenate([
            x[CUSTOMER, :, :, 0].ravel(), x[CUSTOMER, :, :, 1:].ravel(), stocks,
            x[PICKUP, :, :, 0].ravel()]))

    def test_index_map_matches_plan_reshape(self):
        # columns is the one statement of the layout: kind-major, then
        # origin, destination and step.  solve_rebalance reads the plan
        # tensors off the solution through it.
        n, horizon = 3, 2
        cols = columns(n, horizon)
        assert cols.shape == (4, n, n, horizon + 1)
        for kind in (REBALANCE, CUSTOMER, BACKLOG, PICKUP):
            for i in range(n):
                for j in range(n):
                    for k in range(horizon + 1):
                        assert cols[kind, i, j, k] == ((kind * n + i) * n + j) * (horizon + 1) + k
        # build_problem lays its costs out in the same order.
        net = line_network(n)
        w = CostWeights.defaults(net, horizon)
        prob = instant_problem(net, FleetState(idle=np.ones(n, dtype=int)),
                               np.zeros((n, n), dtype=int), zero_demand(n, horizon), w)
        cost = prob.c[cols]
        reb, backlog, pickup = w.expanded(n, horizon)
        assert np.array_equal(cost[REBALANCE], reb)
        assert np.all(cost[CUSTOMER] == 0)
        assert np.array_equal(cost[BACKLOG], np.broadcast_to(backlog, (n, n, horizon + 1)))
        assert np.array_equal(cost[PICKUP], np.broadcast_to(pickup, (n, n, horizon + 1)))

    def test_diagonal_moves_fixed_to_zero(self):
        n, horizon = 3, 2
        net = line_network(n)
        prob = instant_problem(net, FleetState(idle=np.ones(n, dtype=int)),
                               np.zeros((n, n), dtype=int), zero_demand(n, horizon))
        ub = prob.ub[columns(n, horizon)]
        for i in range(n):
            for kind in (REBALANCE, CUSTOMER):
                assert np.all(ub[kind, i, i] == 0.0)
        off = ~np.eye(n, dtype=bool)
        assert np.all(ub[:, off] == np.inf)

    def test_rows_match_dense_oracle(self):
        # Every row, coefficient, right-hand side and sense, against dense
        # rows written out one by one.  Vehicle availability is written the
        # cumulative way: at (i, k), every trip out of i that departed by k,
        # less every trip into i that landed by k, is at most the opening
        # stock plus what arrived by k.  The program's balance rows, summed
        # over steps 0..k, must give exactly that row in the flow columns
        # and the stock (i, k) alone in the stock columns, which the lower
        # bound 0 then turns into the same inequality.  The travel steps are
        # asymmetric and range from 1 to 3, and vehicles are in transit,
        # one of them landing past the horizon.
        n, horizon = 4, 4
        steps = horizon + 1
        kappa = np.array([[0, 1, 2, 3],
                          [2, 0, 1, 3],
                          [3, 1, 0, 2],
                          [1, 3, 2, 0]])
        net = dataclasses.replace(line_network(n), kappa=kappa)
        rng = np.random.default_rng(4)
        state = FleetState(idle=np.array([2, 0, 1, 3]),
                           arrivals=[(1, 1), (1, 3), (2, 2), (0, 4), (3, 6)])
        demand = rng.integers(0, 3, size=(n, n, steps))
        out = rng.integers(0, 2, size=(n, n))
        idx = np.arange(n)
        demand[idx, idx, :] = 0
        out[idx, idx] = 0
        prob = instant_problem(net, state, out, demand)
        flows = 4 * n * n * steps

        def col(kind, i, j, k):
            return ((kind * n + i) * n + j) * steps + k

        def row(terms, rhs):
            r = np.zeros(flows)
            for kind, i, j, k, v in terms:
                r[col(kind, i, j, k)] += v
            return r, rhs

        first, queue, avail, done = [], [], [], []
        for i in range(n):
            for j in range(n):
                first.append(row([(PICKUP, i, j, 0, 1), (CUSTOMER, i, j, 0, -1),
                                  (BACKLOG, i, j, 0, -1)], 0))
        for i in range(n):
            for j in range(n):
                for k in range(1, steps):
                    queue.append(row([(CUSTOMER, i, j, k, 1), (BACKLOG, i, j, k, 1),
                                      (BACKLOG, i, j, k - 1, -1), (PICKUP, i, j, k, -1)],
                                     demand[i, j, k]))
        for i in range(n):
            for k in range(steps):
                terms = []
                for j in range(n):
                    if j == i:
                        continue
                    for sig in range(steps):
                        if sig <= k:
                            terms += [(REBALANCE, i, j, sig, 1), (CUSTOMER, i, j, sig, 1)]
                        if sig + kappa[j, i] <= k:
                            terms += [(REBALANCE, j, i, sig, -1), (CUSTOMER, j, i, sig, -1)]
                landed = sum(1 for st, t in state.arrivals if st == i and t <= k)
                avail.append(row(terms, state.idle[i] + landed))
        for i in range(n):
            for j in range(n):
                done.append(row([(PICKUP, i, j, k, 1) for k in range(steps)], out[i, j]))

        a, b = prob.a.toarray(), prob.b
        assert a.shape == (len(first) + len(queue) + len(avail) + len(done),
                           flows + n * steps)
        assert prob.senses == ["E"] * a.shape[0]
        lo, hi = len(first) + len(queue), len(first) + len(queue) + len(avail)
        other, rest = np.r_[:lo, hi:a.shape[0]], first + queue + done
        assert np.array_equal(a[other, :flows], np.array([r for r, _ in rest]))
        assert np.all(a[other, flows:] == 0)
        assert np.array_equal(b[other], np.array([v for _, v in rest], dtype=float))
        summed = np.cumsum(a[lo:hi].reshape(n, steps, -1), axis=1).reshape(n * steps, -1)
        assert np.array_equal(summed[:, :flows], np.array([r for r, _ in avail]))
        assert np.array_equal(summed[:, flows:], np.eye(n * steps))
        assert np.array_equal(np.cumsum(b[lo:hi].reshape(n, steps), axis=1).ravel(),
                              np.array([v for _, v in avail], dtype=float))
        assert np.all(prob.lb == 0.0) and np.all(prob.ub[flows:] == np.inf)
        assert np.all(prob.c[flows:] == 0.0)
        # Each balance row holds its stock, the step before's, and each
        # trip's departure or landing once: no cumulative sums.
        assert prob.a.nnz == np.count_nonzero(a)
        landing = sum(1 for j in range(n) for i in range(n) for sig in range(steps)
                      if j != i and sig + kappa[j, i] < steps)
        assert np.count_nonzero(a[lo:hi]) == (n * steps + n * horizon
                                              + 2 * (n * (n - 1) * steps + landing))

    def test_rejects_fractional_or_negative_demand(self):
        net = line_network(2)
        state = FleetState(idle=np.ones(2, dtype=int))
        program = build_problem(net, 2, CostWeights.defaults(net, 2))
        bad = zero_demand(2, 2).astype(float)
        bad[0, 1, 1] = 0.5
        with pytest.raises(InvalidInputError):
            program.rhs(state, np.zeros((2, 2), dtype=int), bad)
        bad[0, 1, 1] = -1.0
        with pytest.raises(InvalidInputError):
            program.rhs(state, np.zeros((2, 2), dtype=int), bad)
        with pytest.raises(InvalidInputError, match="T\\+1"):
            program.rhs(state, np.zeros((2, 2), dtype=int), zero_demand(2, 3))

    def test_rejects_nonzero_outstanding_diagonal(self):
        net = line_network(2)
        out = np.array([[1, 0], [0, 0]])
        program = build_problem(net, 2, CostWeights.defaults(net, 2))
        with pytest.raises(InvalidInputError):
            program.rhs(FleetState(idle=np.ones(2, dtype=int)), out, zero_demand(2, 2))
        with pytest.raises(InvalidInputError, match="horizon"):
            build_problem(net, 0, CostWeights.defaults(net, 0))

    def test_one_program_serves_every_instant(self):
        # The run builds its program once and pairs it with each instant's
        # right-hand side; that must be bit for bit the program built for
        # the instant alone.  In-transit vehicles, outstanding requests and
        # demand change between instants; nothing else may.
        n, horizon = 4, 5
        kappa = np.array([[0, 1, 2, 3],
                          [2, 0, 1, 3],
                          [3, 1, 0, 2],
                          [1, 3, 2, 0]])
        net = dataclasses.replace(line_network(n), kappa=kappa)
        w = CostWeights.defaults(net, horizon)
        program = build_problem(net, horizon, w)
        rng = np.random.default_rng(12)
        idx = np.arange(n)
        for _ in range(6):
            demand = rng.integers(0, 3, size=(n, n, horizon + 1))
            out = rng.integers(0, 3, size=(n, n))
            demand[idx, idx, :] = 0
            out[idx, idx] = 0
            arrivals = [(int(rng.integers(0, n)), int(rng.integers(1, horizon + 3)))
                        for _ in range(int(rng.integers(0, 5)))]
            state = FleetState(idle=rng.integers(0, 4, size=n), arrivals=arrivals)
            reused = program.problem(state, out, demand)
            fresh = instant_problem(net, state, out, demand, w)
            for name in ("c", "lb", "ub", "b"):
                got, want = getattr(reused, name), getattr(fresh, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert reused.senses == fresh.senses
            assert (reused.a != fresh.a).nnz == 0
            assert np.array_equal(reused.a.indptr, fresh.a.indptr)
            assert np.array_equal(reused.a.indices, fresh.a.indices)
            assert np.array_equal(reused.a.data, fresh.a.data)
            assert np.array_equal(reused.b, program.rhs(state, out, demand))
            # The base program is untouched by its instants.
            assert np.all(program.base.b == 0.0)
            assert solve_ilp(reused).objective == solve_ilp(fresh).objective


class TestSolvePlans:
    def test_zero_problem_stays_parked(self):
        net = line_network(2)
        plan = solve_rebalance(net, FleetState(idle=np.array([2, 2])),
                               np.zeros((2, 2), dtype=int), zero_demand(2, 3))
        assert plan.status == "optimal"
        assert plan.objective == 0.0
        assert plan.rebalance.sum() == 0
        assert np.all(plan.first_step == 0)

    def test_moves_vehicle_ahead_of_known_demand(self):
        # One idle vehicle at station 0, one request appearing at station 1
        # next step heading back to 0; kappa = 1.  The only plan that
        # serves on time starts the empty leg immediately.
        net = line_network(2)
        demand = zero_demand(2, 3)
        demand[1, 0, 1] = 1
        plan = solve_rebalance(net, FleetState(idle=np.array([1, 0])),
                               np.zeros((2, 2), dtype=int), demand)
        assert plan.first_step[0, 1] == 1
        assert plan.backlog.sum() == 0

    def test_serves_outstanding_via_pickup_rows(self):
        net = line_network(2)
        out = np.array([[0, 2], [0, 0]])
        plan = solve_rebalance(net, FleetState(idle=np.array([2, 0])), out,
                               zero_demand(2, 3))
        assert plan.pickup[0, 1].sum() == 2
        assert plan.customer[0, 1].sum() == 2

    def test_prefers_cheap_origin(self):
        # Demand at station 1 can be covered from station 0 (9 km) or
        # station 2 (9 km); with station 2 idle-rich and station 0 empty the
        # only integer optimum pulls from 2.
        net = line_network(3)
        demand = zero_demand(3, 3)
        demand[1, 0, 1] = 1
        plan = solve_rebalance(net, FleetState(idle=np.array([0, 0, 1])),
                               np.zeros((3, 3), dtype=int), demand)
        assert plan.first_step[2, 1] == 1

    def test_backlog_when_fleet_too_small(self):
        net = line_network(2)
        demand = zero_demand(2, 2)
        demand[0, 1, 1] = 3
        plan = solve_rebalance(net, FleetState(idle=np.array([1, 0])),
                               np.zeros((2, 2), dtype=int), demand)
        assert plan.status == "optimal"
        assert plan.backlog.sum() > 0  # two requests must wait

    def test_verify_against_passes_for_solver_output(self):
        # Asymmetric travel steps from 1 to 3, and vehicles in transit
        # that land inside and past the horizon.
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            horizon = int(rng.integers(2, 6))
            kappa = rng.integers(1, 4, size=(n, n))
            np.fill_diagonal(kappa, 0)
            net = dataclasses.replace(line_network(n), kappa=kappa)
            demand = zero_demand(n, horizon)
            mask = rng.random((n, n, horizon)) < 0.3
            demand[:, :, 1:][mask] = rng.integers(1, 3, size=int(mask.sum()))
            idx = np.arange(n)
            demand[idx, idx, :] = 0
            out = rng.integers(0, 2, size=(n, n))
            out[idx, idx] = 0
            arrivals = [(int(rng.integers(0, n)), int(rng.integers(1, horizon + 2)))
                        for _ in range(int(rng.integers(1, 4)))]
            state = FleetState(idle=rng.integers(0, 3, size=n), arrivals=arrivals)
            plan = solve_rebalance(net, state, out, demand)
            plan.verify_against(net, state, out, demand)  # must not raise

    def test_verify_against_catches_corruption(self):
        net = line_network(2)
        demand = zero_demand(2, 3)
        demand[0, 1, 1] = 1
        state = FleetState(idle=np.array([1, 1]))
        out = np.zeros((2, 2), dtype=int)
        plan = solve_rebalance(net, state, out, demand)
        plan.verify_against(net, state, out, demand)
        plan.rebalance[0, 1, 0] += 5  # more moves than vehicles
        with pytest.raises(SolverError, match="availability at step 0"):
            plan.verify_against(net, state, out, demand)

    def test_verify_against_catches_unserved_outstanding(self):
        net = line_network(2)
        state = FleetState(idle=np.array([2, 0]))
        out = np.array([[0, 1], [0, 0]])
        plan = solve_rebalance(net, state, out, zero_demand(2, 3))
        plan.pickup[0, 1, :] = 0
        with pytest.raises(SolverError, match="pickup|recursion|balance"):
            plan.verify_against(net, state, out, np.zeros((2, 2, 4), dtype=int))

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            horizon = int(rng.integers(2, 4))
            net = line_network(n)
            demand = zero_demand(n, horizon)
            mask = rng.random((n, n, horizon)) < 0.4
            demand[:, :, 1:][mask] = rng.integers(1, 3, size=int(mask.sum()))
            idx = np.arange(n)
            demand[idx, idx, :] = 0
            out = rng.integers(0, 2, size=(n, n))
            out[idx, idx] = 0
            state = FleetState(idle=rng.integers(0, 3, size=n),
                               arrivals=[(int(rng.integers(0, n)), 1)])
            weights = CostWeights.defaults(net, horizon)
            prob = instant_problem(net, state, out, demand, weights)
            ours = solve_ilp(prob)
            assert ours.objective == pytest.approx(reference_optimum(prob), abs=1e-6)

    @pytest.mark.parametrize("tie", ["flat pickup delay", "one free move",
                                     "one move priced below the dual tolerance"])
    def test_weights_that_allow_a_tie_never_certify(self, tie):
        # A flat pickup delay, or one free move, lets another plan cost as
        # little as the zero-cost one, so that plan proves nothing: every
        # instant goes to the solver, even one the default weights certify.
        # A move priced above zero but below 1e-7 of the largest cost is a
        # tie too, at the solver's own dual tolerance.
        n, horizon = 3, 3
        net = line_network(n)
        strict = build_problem(net, horizon, CostWeights.defaults(net, horizon))
        if tie == "flat pickup delay":
            weights = CostWeights.defaults(net, horizon, pickup_delay_slope=0.0)
        else:
            weights = CostWeights.defaults(net, horizon)
            weights.rebalance[0, 2] = (0.0 if tie == "one free move"
                                       else 0.5e-7 * strict.base.c.max())
        program = build_problem(net, horizon, weights)
        rng = np.random.default_rng(23)
        idx = np.arange(n)
        for _ in range(6):
            demand = rng.integers(0, 2, size=(n, n, horizon + 1))
            out = rng.integers(0, 2, size=(n, n))
            demand[idx, idx, :] = 0
            out[idx, idx] = 0
            state = FleetState(idle=np.full(n, 8))    # enough for the zero-cost plan
            certified = strict.solve(state, out, demand)
            assert certified.nodes == 0
            prob = strict.problem(state, out, demand)
            prob.root.drop()
            assert np.array_equal(plan_vector(certified, net, state),
                                  np.round(_solve_root(prob)[0]))
            plan = program.solve(state, out, demand)
            assert plan.nodes >= 1
            prob = program.problem(state, out, demand)
            assert plan.objective == pytest.approx(reference_optimum(prob), abs=1e-6)

    def test_recorded_hard_step_is_solved_to_optimality(self):
        # Control step 76 of the seed-0 benchmark day: the root LP is
        # fractional, and the proven integer optimum is 1067.137.
        rec = json.loads((DATA / "seed0_step76.json").read_text())
        net = benchmark_network()
        state = FleetState(np.array(rec["idle"]),
                           [tuple(a) for a in rec["arrivals"]])
        out = np.array(rec["outstanding"])
        demand = np.array(rec["demand"])
        plan = solve_rebalance(net, state, out, demand)
        assert plan.status == "optimal"
        assert plan.objective == pytest.approx(1067.137, rel=1e-6)
        assert plan.nodes > 1
        plan.verify_against(net, state, out, demand)

    def test_quantile_half_equals_deterministic_mean(self):
        # The chance-constrained path at epsilon = 0.5 with the realized
        # means must assemble the very same problem as the deterministic
        # path fed those means directly.
        rng = np.random.default_rng(5)
        n, horizon = 3, 3
        net = line_network(n)
        mean = rng.uniform(0.0, 3.0, size=(n, n, horizon + 1))
        std = rng.uniform(0.1, 1.0, size=(n, n, horizon + 1))
        via_quantile = quantile_demand(mean, std, 0.5)
        deterministic = quantile_demand(mean, np.zeros_like(std), 0.5)
        assert np.array_equal(via_quantile, deterministic)
        state = FleetState(idle=np.full(n, 2))
        w = CostWeights.defaults(net, horizon)
        out = np.zeros((n, n), dtype=int)
        program = build_problem(net, horizon, w)
        pa = program.problem(state, out, via_quantile)
        pb = program.problem(state, out, deterministic)
        assert np.array_equal(pa.c, pb.c)
        assert (pa.a != pb.a).nnz == 0
        assert np.array_equal(pa.b, pb.b)
        assert pa.senses == pb.senses


@settings(derandomize=True, max_examples=40, deadline=None)
@given(instant=small_instants(), data=st.data())
def test_solved_plans_verify_and_a_moved_unit_does_not(instant, data):
    net, state, out, demand = instant
    horizon = demand.shape[2] - 1
    program = build_problem(net, horizon, CostWeights.defaults(net, horizon))
    plan = program.solve(state, out, demand)
    plan.verify_against(net, state, out, demand)
    x = plan_vector(plan, net, state)
    assert plan.objective == float(program.base.c @ x)

    # A plan certified without the solver (nodes == 0) is the solver's own
    # vertex and the MILP optimum; every other plan went through the solver.
    if plan.nodes == 0:
        prob = program.problem(state, out, demand)
        assert np.array_equal(x, solve_ilp(prob).x)
        assert plan.objective == pytest.approx(reference_optimum(prob), abs=1e-6)
    else:
        assert plan.nodes >= 1

    # Every unit of service, backlog or pickup sits in equality rows, so
    # moving one to another step breaks the plan.
    positive = [(name, *idx) for name in ("customer", "backlog", "pickup")
                for idx in zip(*np.nonzero(getattr(plan, name)))]
    name, i, j, k = data.draw(st.sampled_from(positive)) if positive else ("pickup", 0, 1, 0)
    to = data.draw(st.sampled_from([s for s in range(horizon + 1) if s != k]))
    moved = getattr(plan, name)
    moved[i, j, k] -= 1
    moved[i, j, to] += 1
    with pytest.raises(SolverError):
        plan.verify_against(net, state, out, demand)


def loop_verify(plan, network, state, outstanding, demand):
    """Plan verification as a loop: one check per queue-recursion step,
    and each landing of every trip added one at a time."""
    xr, xc, s, w = (t.astype(np.int64) for t in
                    (plan.rebalance, plan.customer, plan.backlog, plan.pickup))
    n, _, steps = xr.shape
    demand = np.asarray(demand, dtype=np.int64)

    def ensure(ok, what):
        if not ok:
            raise SolverError(f"plan violates {what}")

    for t in (xr, xc, s, w):
        ensure(np.all(t >= 0), "non-negativity")
    idx = np.arange(n)
    ensure(np.all(xr[idx, idx] == 0), "zero-diagonal rebalancing")
    ensure(np.all(xc[idx, idx] == 0), "zero-diagonal service")
    ensure(np.all(w[:, :, 0] - xc[:, :, 0] - s[:, :, 0] == 0), "the first-step pickup balance")
    for k in range(1, steps):
        ensure(np.all(xc[:, :, k] + s[:, :, k] - s[:, :, k - 1] - w[:, :, k] == demand[:, :, k]),
               f"the step-{k} queue recursion")
    ensure(np.all(w.sum(axis=2) == outstanding), "complete pickup of waiting requests")
    moves = xr + xc
    inflow = state.arrival_counts(steps - 1).astype(np.int64)
    for j in range(n):
        for i in range(n):
            for sig in range(steps):
                land = sig + network.kappa[j, i]
                if j != i and land < steps:
                    inflow[i, land] += moves[j, i, sig]
    stock = state.idle[:, None] + np.cumsum(inflow - moves.sum(axis=1), axis=1)
    short = np.any(stock < 0, axis=0)
    ensure(not short.any(), f"vehicle availability at step {short.argmax()}")


def verdict(check, *args):
    try:
        check(*args)
    except SolverError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instant=small_instants(), data=st.data())
def test_verification_agrees_with_the_loop_on_corrupted_plans(instant, data):
    # Up to three entries of any tensor move by a few units; both checks
    # must accept the same plans and name the same first violation.
    net, state, out, demand = instant
    horizon = demand.shape[2] - 1
    plan = build_problem(net, horizon, CostWeights.defaults(net, horizon)).solve(
        state, out, demand)
    n = net.n_stations
    for _ in range(data.draw(st.integers(0, 3))):
        name = data.draw(st.sampled_from(["rebalance", "customer", "backlog", "pickup"]))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, horizon))
        getattr(plan, name)[i, j, k] += data.draw(st.sampled_from([-2, -1, 1, 2, 5]))
    args = (net, state, out, demand)
    assert verdict(plan.verify_against, *args) == verdict(loop_verify, plan, *args)


def test_queue_recursion_names_its_first_failing_step():
    net = line_network(3)
    demand = zero_demand(3, 5)
    state = FleetState(idle=np.array([2, 2, 2]))
    out = np.zeros((3, 3), dtype=int)
    plan = solve_rebalance(net, state, out, demand)
    plan.verify_against(net, state, out, demand)
    plan.customer[2, 0, 4] += 1
    plan.customer[0, 1, 3] += 1
    with pytest.raises(SolverError, match="the step-3 queue recursion"):
        plan.verify_against(net, state, out, demand)
