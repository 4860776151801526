"""Receding-horizon rebalancing optimizer.

Each control instant solves one integer program over four flow tensors,
all shaped (N, N, T+1): proactive rebalancing trips, customer-carrying
trips, the backlog of admitted-but-unserved requests, and the pickup
schedule for requests already waiting when the horizon opens.  Customer
movement is free; the objective trades rebalancing distance against
backlog and late-pickup penalties.  Only the first rebalancing step is
ever executed; the rest of the plan exists to price the future.

Vehicle availability is a state: one stock column per station and step,
after the flow columns, counts the vehicles a station holds once that
step's trips have left and landed.  One balance row per station and step
carries it from the step before, and its lower bound 0 keeps departures
within the vehicles there.  The flows fix every stock, so the stocks
cost nothing and carry no tie cost (:mod:`amodcc.ilp`).

The rows, costs and bounds depend only on the network, the horizon and
the weights, so :func:`build_problem` assembles them once per run; each
control instant supplies only the right-hand side.

Every instant goes to :func:`solve_ilp`.  Its start basis is the
instant's zero-cost plan: no empty moves, no backlog, every waiting
request picked up at step 0 and each step's demand served in its step;
per row, that plan's customer trip, stock or step-0 pickup is basic.
Where the weights make that basis strictly optimal and the plan keeps
every stock non-negative, the plan is returned with 0 nodes and no
solver run.  Otherwise the root LP starts from the basis the run's last
solved instant ended on, or cold from this dual feasible one, and breaks
ties by a fixed rule, so a plan depends on its instant alone.

Demand uncertainty enters through the right-hand side only: the service
rows require enough capacity for the forecast's ``1 - epsilon`` quantile,
so risk appetite is one scalar.  At ``epsilon = 0.5`` the quantile
collapses to the forecast mean and the problem is exactly the
deterministic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, SolverError
from .gp import gaussian_quantile
from .ilp import IlpProblem, SolverConfig, solve_ilp
from .network import FleetState, StationNetwork

REBALANCE, CUSTOMER, BACKLOG, PICKUP = range(4)


def columns(n: int, horizon: int) -> np.ndarray:
    """Column ids of the four flow tensors, indexed ``[kind, i, j, k]``.

    The one statement of the flow columns' layout: kind-major, then
    origin, destination and step.  Both assembly and plan read-out index
    with it.  The stock columns follow, station-major, then step.
    """
    return np.arange(4 * n * n * (horizon + 1)).reshape(4, n, n, horizon + 1)


def quantile_demand(mean: np.ndarray, std: np.ndarray, epsilon: float) -> np.ndarray:
    """Integer per-step demand covering the forecast's 1-epsilon quantile.

    Values are ceiled to whole requests (quantiles within 1e-9 of an
    integer snap to it, so exact means stay exact), clamped at zero, and
    zeroed on the diagonal: a station never generates trips to itself.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must lie in (0, 1), got {epsilon}")
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    q = gaussian_quantile(1.0 - epsilon, mean, np.broadcast_to(std, mean.shape))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    nearest = np.round(q)
    snapped = np.where(np.abs(q - nearest) <= 1e-9, nearest, np.ceil(q))
    out = np.maximum(snapped, 0.0).astype(np.int64)
    if out.ndim >= 2 and out.shape[0] == out.shape[1]:
        idx = np.arange(out.shape[0])
        out[idx, idx] = 0
    return out


@dataclass
class CostWeights:
    """Objective weights: rebalance per flow, backlog/pickup per step."""

    rebalance: np.ndarray       # (N, N) or (N, N, T+1), >= 0
    backlog: np.ndarray         # (T+1,), > 0
    pickup_delay: np.ndarray    # (T+1,), >= 0 and non-decreasing

    @classmethod
    def defaults(cls, network: StationNetwork, horizon: int,
                 backlog_cost: float = 10.0,
                 pickup_delay_slope: float = 0.1) -> "CostWeights":
        """Distance-priced rebalancing (km), flat backlog, linear delay."""
        return cls(rebalance=network.travel_distance / 1000.0,
                   backlog=np.full(horizon + 1, float(backlog_cost)),
                   pickup_delay=pickup_delay_slope * np.arange(horizon + 1, dtype=float))

    def expanded(self, n: int, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        reb = np.asarray(self.rebalance, dtype=float)
        if reb.ndim == 2:
            reb = reb[:, :, None]
        try:
            reb = np.broadcast_to(reb, (n, n, horizon + 1))
        except ValueError:
            raise InvalidInputError(
                f"rebalance weights {np.asarray(self.rebalance).shape} do not "
                f"broadcast to ({n}, {n}, {horizon + 1})")
        backlog = np.asarray(self.backlog, dtype=float)
        pickup = np.asarray(self.pickup_delay, dtype=float)
        if backlog.shape != (horizon + 1,) or pickup.shape != (horizon + 1,):
            raise InvalidInputError("backlog/pickup weights must have length T+1")
        if np.any(reb < 0) or np.any(pickup < 0):
            raise InvalidInputError("cost weights must be non-negative")
        if np.any(backlog <= 0):
            raise InvalidInputError("backlog weights must be positive")
        if np.any(np.diff(pickup) < 0):
            raise InvalidInputError("pickup delay weights must be non-decreasing")
        return reb, backlog, pickup


def build_problem(network: StationNetwork, horizon: int,
                  weights: CostWeights) -> "RebalanceProgram":
    """Assemble the integer program of a network, horizon and weights.

    Everything but the right-hand side is fixed here, so one program
    serves every control instant of a run; each instant supplies its
    fleet state, waiting requests and demand through
    :meth:`RebalanceProgram.rhs`.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    n = network.n_stations
    steps = horizon + 1
    reb_w, backlog_w, pickup_w = weights.expanded(n, horizon)
    x = columns(n, horizon)
    moves = x[[REBALANCE, CUSTOMER]]    # both kinds of trip take a vehicle

    # Row ids of the four blocks, in row order.
    first = np.arange(n * n).reshape(n, n)
    queue = first.size + np.arange(n * n * horizon).reshape(n, n, horizon)
    balance = first.size + queue.size + np.arange(n * steps).reshape(n, steps)
    done = first.size + queue.size + balance.size + np.arange(n * n).reshape(n, n)
    # One stock column per station and step, after the flow columns: the
    # vehicles a station holds once step k's trips have left and landed.
    stock = x.size + np.arange(n * steps).reshape(n, steps)
    n_cols = x.size + stock.size

    # A trip i -> j (j != i) leaves i at its step; the trip lj -> li that
    # departs at ls lands at lk = ls + kappa[lj, li], if inside the horizon.
    off = ~np.eye(n, dtype=bool)
    oi, oj = np.nonzero(off)
    lj, li, ls = np.nonzero((np.arange(steps) + network.kappa[:, :, None] < steps)
                            & off[:, :, None])
    lk = ls + network.kappa[lj, li]

    terms = [  # (row ids, column ids, coefficient), broadcast together
        # Pickups of already-waiting requests either move now or queue.
        (first, x[PICKUP, :, :, 0], 1.0),
        (first, x[CUSTOMER, :, :, 0], -1.0),
        (first, x[BACKLOG, :, :, 0], -1.0),
        # Queue recursion: service plus carried backlog covers each step's
        # quantile demand and scheduled pickups exactly.
        (queue, x[CUSTOMER, :, :, 1:], 1.0),
        (queue, x[BACKLOG, :, :, 1:], 1.0),
        (queue, x[BACKLOG, :, :, :-1], -1.0),
        (queue, x[PICKUP, :, :, 1:], -1.0),
        # Stock balance: a station's stock is the last step's, plus what
        # lands and arrives, minus what departs; its lower bound 0 keeps
        # departures within the vehicles there.
        (balance, stock, 1.0),
        (balance[:, 1:], stock[:, :-1], -1.0),
        (balance[oi], moves[:, oi, oj], 1.0),
        (balance[li, lk], moves[:, lj, li, ls], -1.0),
        # Every waiting request gets picked up somewhere in the horizon.
        (done[:, :, None], x[PICKUP], 1.0),
    ]
    rows, cols, vals = [], [], []
    for row_ids, col_ids, coef in terms:
        row_ids, col_ids = np.broadcast_arrays(row_ids, col_ids)
        rows.append(row_ids.ravel())
        cols.append(col_ids.ravel())
        vals.append(np.full(col_ids.size, coef))
    n_rows = first.size + queue.size + balance.size + done.size
    a = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_rows, n_cols)).tocsr()

    c = np.zeros(n_cols)
    c[x[REBALANCE]] = reb_w
    c[x[BACKLOG]] = backlog_w
    c[x[PICKUP]] = pickup_w

    diag = np.arange(n)
    ub = np.full(n_cols, np.inf)
    ub[moves[:, diag, diag]] = 0.0

    # A cold solve and the certificate start at the zero-cost plan's basis:
    # per row, its customer trip, stock or step-0 pickup.  Only that pickup
    # costs anything, so a move prices at its weight, a backlog at its
    # weight and a later pickup at pickup_w[k] - pickup_w[0]: all >= 0, so
    # the basis is dual feasible.  The flows fix every stock, so only the
    # stocks carry no tie cost.
    pivots = np.empty(n_rows, dtype=np.int64)
    pivots[first] = x[CUSTOMER, :, :, 0]
    pivots[queue] = x[CUSTOMER, :, :, 1:]
    pivots[balance] = stock
    pivots[done] = x[PICKUP, :, :, 0]
    base = IlpProblem(c=c, a=a, b=np.zeros(n_rows), lb=np.zeros(n_cols), ub=ub, pivots=pivots,
                      dependent=stock.ravel())
    return RebalanceProgram(network=network, horizon=horizon, base=base)


@dataclass
class RebalanceProgram:
    """One run's integer program: everything but the right-hand side.

    ``base`` holds the equality rows, costs and bounds (and, through
    :class:`IlpProblem`, their HiGHS model for the root LP and the basis
    each solve warm-starts from) with a zero right-hand side;
    :meth:`problem` pairs it with one instant's.
    """

    network: StationNetwork
    horizon: int
    base: IlpProblem

    @property
    def a(self) -> sparse.csr_matrix:
        """The row matrix every instant shares."""
        return self.base.a

    def rhs(self, state: FleetState, outstanding: np.ndarray,
            demand: np.ndarray) -> np.ndarray:
        """Right-hand side of one control instant, in row order.

        ``demand[i, j, k]`` is the integer request count the plan must
        cover in horizon step k >= 1 (slice k = 0 is ignored; requests
        already waiting enter through ``outstanding`` instead).  Each
        balance row gets the vehicles arriving at its station and step,
        plus the idle ones at step 0.
        """
        n = self.network.n_stations
        demand = np.asarray(demand)
        if demand.shape != (n, n, self.horizon + 1):
            raise InvalidInputError(
                f"demand must be (N, N, T+1) = {(n, n, self.horizon + 1)}, "
                f"got {demand.shape}")
        if np.any(demand < 0) or np.any(demand != np.floor(demand)):
            raise InvalidInputError("demand must contain non-negative integers")
        if np.any(np.diagonal(demand[:, :, 1:]) != 0):
            raise InvalidInputError("demand diagonal must be zero")
        outstanding = np.asarray(outstanding)
        if outstanding.shape != (n, n):
            raise InvalidInputError(f"outstanding must be (N, N), got {outstanding.shape}")
        if np.any(outstanding < 0) or np.any(np.diag(outstanding) != 0):
            raise InvalidInputError("outstanding must be non-negative, zero diagonal")
        if state.idle.shape != (n,):
            raise InvalidInputError("fleet state does not match the network size")
        inflow = state.arrival_counts(self.horizon)
        inflow[:, 0] += state.idle
        return np.concatenate([np.zeros(n * n), demand[:, :, 1:].ravel(),
                               inflow.ravel(), outstanding.ravel()], dtype=float)

    def problem(self, state: FleetState, outstanding: np.ndarray,
                demand: np.ndarray) -> IlpProblem:
        """The full integer program of one control instant."""
        return self.base.with_rhs(self.rhs(state, outstanding, demand))

    def solve(self, state: FleetState, outstanding: np.ndarray, demand: np.ndarray,
              cfg: SolverConfig | None = None) -> "RebalancePlan":
        """Solve one control instant and read the plan tensors off the optimum.

        A zero-cost plan that :func:`solve_ilp` certifies has ``nodes == 0``.
        """
        sol = solve_ilp(self.problem(state, outstanding, demand), cfg)
        x = np.round(sol.x).astype(np.int64)[columns(self.network.n_stations, self.horizon)]
        return RebalancePlan(rebalance=x[REBALANCE], customer=x[CUSTOMER],
                             backlog=x[BACKLOG], pickup=x[PICKUP],
                             objective=sol.objective, status=sol.status,
                             nodes=sol.nodes, wall_seconds=sol.wall_seconds,
                             iterations=sol.iterations)


@dataclass
class RebalancePlan:
    """Solved flow tensors for one control instant, all (N, N, T+1)."""

    rebalance: np.ndarray
    customer: np.ndarray
    backlog: np.ndarray
    pickup: np.ndarray
    objective: float
    status: str
    nodes: int                  # 0 for a plan the start basis certifies
    wall_seconds: float
    iterations: int             # simplex iterations of the root LP and its tie-break

    @property
    def first_step(self) -> np.ndarray:
        """The only part that is executed: rebalancing trips to start now."""
        return self.rebalance[:, :, 0]

    def verify_against(
        self,
        network: StationNetwork,
        state: FleetState,
        outstanding: np.ndarray,
        demand: np.ndarray,
    ) -> None:
        """Recheck every row in integer arithmetic; raise on any violation."""
        xr, xc, s, w = (t.astype(np.int64) for t in
                        (self.rebalance, self.customer, self.backlog, self.pickup))
        n, _, steps = xr.shape
        horizon = steps - 1
        demand = np.asarray(demand, dtype=np.int64)
        outstanding = np.asarray(outstanding, dtype=np.int64)

        def ensure(ok: bool, what: str) -> None:
            if not ok:
                raise SolverError(f"plan violates {what}")

        for t in (xr, xc, s, w):
            ensure(bool(np.all(t >= 0)), "non-negativity")
        idx = np.arange(n)
        ensure(bool(np.all(xr[idx, idx] == 0)), "zero-diagonal rebalancing")
        ensure(bool(np.all(xc[idx, idx] == 0)), "zero-diagonal service")
        ensure(bool(np.all(w[:, :, 0] - xc[:, :, 0] - s[:, :, 0] == 0)),
               "the first-step pickup balance")
        for k in range(1, steps):
            lhs = xc[:, :, k] + s[:, :, k] - s[:, :, k - 1] - w[:, :, k]
            ensure(bool(np.all(lhs == demand[:, :, k])),
                   f"the step-{k} queue recursion")
        ensure(bool(np.all(w.sum(axis=2) == outstanding)),
               "complete pickup of waiting requests")

        moves = xr + xc
        # Every trip j -> i that departs at sigma lands at sigma + kappa[j, i];
        # the stock after step k is what landed minus what left by then.
        inflow = state.arrival_counts(horizon).astype(np.int64)
        j, i, sig = np.meshgrid(idx, idx, np.arange(steps), indexing="ij")
        land = sig + network.kappa[j, i]
        lands = (j != i) & (land < steps)
        np.add.at(inflow, (i[lands], land[lands]), moves[lands])
        stock = state.idle[:, None] + np.cumsum(inflow - moves.sum(axis=1), axis=1)
        short = np.any(stock < 0, axis=0)
        ensure(not short.any(), f"vehicle availability at step {short.argmax()}")


def solve_rebalance(
    network: StationNetwork,
    state: FleetState,
    outstanding: np.ndarray,
    demand: np.ndarray,
    weights: CostWeights | None = None,
    cfg: SolverConfig | None = None,
) -> RebalancePlan:
    """Build and solve one control instant's integer program."""
    horizon = np.asarray(demand).shape[2] - 1
    weights = weights or CostWeights.defaults(network, horizon)
    return build_problem(network, horizon, weights).solve(state, outstanding, demand, cfg)
