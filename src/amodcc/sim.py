"""Discrete-time fleet simulation.

The clock advances in dispatch ticks (30 s by default).  Each tick
completes travel legs, admits newly arrived requests, matches idle
vehicles to waiting requests, and, on its own coarser cadence, lets the
active controller plan rebalancing.  Only the plan's first step is
executed; everything downstream of that decision (pickup legs, customer
legs, rebalancing legs) plays out in continuous time against the
network's travel matrices.

A vehicle is idle or on one leg (a code into ``LEGS``): pickup to a
request's origin, customer to its destination, or rebalancing between
station centroids.  Busy vehicles sit in a heap of (end time, id), so a
tick finds its finished legs without scanning the fleet, and they
complete in that order; idle vehicles go in id order.  Each tick
completes the legs due when it begins: a leg started while it completes
legs (the customer leg after a pickup, even one of zero length) waits
for the next tick.

State that a tick gathers or reduces over the fleet is a NumPy array
indexed by vehicle id: leg code, station, position (``xy``, read only
for idle vehicles), destination and arrival time.  State that a
dispatch or a leg completion touches one vehicle or request at a time
is Python scalars: the requests' times, points and stations (lists
built once per run), request status, each vehicle's request and
current leg distance, and the distance ledger (an ``array.array`` of
doubles, which a snapshot copies out as one buffer).  Indexing a NumPy
array for one element costs several times a list lookup, and a seed-0
``gbm`` week on the benchmark city runs 11,252 dispatches and about
41,000 leg completions.

Controllers:

* ``ccmpc``  - forecast-driven optimizer with a tunable risk level.
* ``fixed``  - same optimizer on the previous interval's realized counts.
* ``oracle`` - same optimizer on the true future counts.
* ``gbm``    - no rebalancing; dispatch only.

The first three differ only in the forecast they plan on: ``fixed`` and
``oracle`` read counts with zero spread, whose quantile is the count
itself.  Every controller dispatches the same way: each tick, one
minimum-distance matching of all idle vehicles to all waiting requests,
whatever their stations.  The optimizer plans station-to-station
rebalancing only; the next control step sees where pickups took vehicles.
"""

from __future__ import annotations

import array
import copy
import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .dispatch import assign_pickups
from .errors import InvalidInputError
from .forecast import (ForecastBank, ForecastTensor, bank_train_config, forecast_demand,
                       train_bank, usable_cores)
from .gp import TrainConfig
from .ilp import SolverConfig
from . import mpc  # build_problem is looked up at call time (perfbench/tracing.py wraps it)
from .mpc import CostWeights, quantile_demand
from .network import (
    FleetState,
    StationNetwork,
    assign_stations,
    outstanding_matrix,
)
from .demand import DAY, DemandFlow, TripTable, synth_demand

CONTROLLERS = ("ccmpc", "fixed", "oracle", "gbm")
LEGS = ("idle", "pickup", "customer", "rebalance")    # names of the leg codes
IDLE, PICKUP, CUSTOMER, REBALANCE = range(len(LEGS))


@dataclass
class Scenario:
    """A network, a trip stream, and the window to simulate.

    Trips before ``sim_start`` are history (GP training data); trips in
    ``[sim_start, sim_end)`` are the live workload.
    """

    network: StationNetwork
    trips: TripTable
    sim_start: float
    sim_end: float
    fleet_size: int
    initial_positions: np.ndarray | None = None    # (fleet,) station ids

    def __post_init__(self):
        for name in ("sim_start", "sim_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
        if self.sim_end <= self.sim_start:
            raise InvalidInputError("sim_end must be after sim_start")
        if self.fleet_size < 1:
            raise InvalidInputError("fleet_size must be >= 1")
        if self.initial_positions is not None:
            pos = np.asarray(self.initial_positions, dtype=int)
            if pos.shape != (self.fleet_size,):
                raise InvalidInputError("initial_positions must list every vehicle")
            if np.any((pos < 0) | (pos >= self.network.n_stations)):
                raise InvalidInputError("initial_positions station out of range")
            self.initial_positions = pos


class DemandGrid:
    """Realized per-interval origin-destination counts over a time range.

    Building a grid labels the origin station of each trip in its window;
    the destinations are labelled only on the first read of
    :attr:`counts`.  :meth:`origin_totals`, which fleet placement reads,
    needs the origins alone.  A :meth:`span` shares its parent's labels.
    """

    def __init__(self, trips: TripTable, network: StationNetwork,
                 origin_epoch: float, interval_seconds: float, n_intervals: int):
        self.origin = float(origin_epoch)
        self.interval_seconds = float(interval_seconds)
        self.n_intervals = int(n_intervals)
        # Only trips near the window are binned.  The times are sorted, so
        # a candidate slice reaching one interval past either end holds
        # every trip the interval test keeps: the test's rounding moves its
        # cut by a few ulps of the epoch, far less than an interval.
        times = trips.times
        lo = int(np.searchsorted(times, self.origin - self.interval_seconds, side="left"))
        hi = int(np.searchsorted(
            times, self.origin + (self.n_intervals + 1) * self.interval_seconds, side="right"))
        m = np.floor((times[lo:hi] - self.origin) / self.interval_seconds).astype(int)
        # The times are sorted and every step from a time to its interval
        # is monotone, so ``m`` never falls: the window's trips are one run
        # of the slice.
        first, stop = np.searchsorted(m, [0, self.n_intervals])
        rows = slice(lo + first, lo + stop)
        # Per trip in the window, in time order: interval in the grid this
        # one was built as, origin station and destination point.
        self._m = m[first:stop]
        self._o_st = assign_stations(network.centroids, trips.origins[rows])
        self._dests = trips.dests[rows]
        self._network = network
        self._whole: DemandGrid | None = None    # the built grid, for a span
        self._first = 0                          # first interval within it

    @cached_property
    def counts(self) -> np.ndarray:
        """(N, N, n_intervals) int64 trips per origin, destination and
        interval.  The built grid's first read labels each destination; a
        span's counts are a view of the built grid's."""
        if self._whole is not None:
            return self._whole.counts[:, :, self._first:self._first + self.n_intervals]
        n = self._network.n_stations
        d_st = assign_stations(self._network.centroids, self._dests)
        flat = (self._o_st * n + d_st) * self.n_intervals + self._m
        return np.bincount(flat, minlength=n * n * self.n_intervals).astype(
            np.int64, copy=False).reshape(n, n, self.n_intervals)

    def origin_totals(self) -> np.ndarray:
        """(N,) trips per origin station, ``counts.sum(axis=(1, 2))``,
        counted without labelling a destination."""
        first, stop = np.searchsorted(self._m, [self._first, self._first + self.n_intervals])
        return np.bincount(self._o_st[first:stop], minlength=self._network.n_stations)

    def span(self, lo: int, hi: int) -> "DemandGrid":
        """Intervals ``lo`` to ``hi`` (exclusive); the counts are a view."""
        if not 0 <= lo <= hi <= self.n_intervals:
            raise InvalidInputError(
                f"cannot take intervals {lo} to {hi} of {self.n_intervals}")
        out = copy.copy(self)
        out.__dict__.pop("counts", None)     # taken from the built grid on read
        out.origin = self.origin + lo * self.interval_seconds
        out.n_intervals = hi - lo
        out._whole = self if self._whole is None else self._whole
        out._first = self._first + lo
        return out

    def midpoint_hours(self, ref_epoch: float) -> np.ndarray:
        """Interval midpoints as hours relative to ``ref_epoch``."""
        mids = self.origin + (np.arange(self.n_intervals) + 0.5) * self.interval_seconds
        return (mids - ref_epoch) / 3600.0


@dataclass
class RunConfig:
    """Knobs for one simulation run."""

    controller: str = "ccmpc"
    epsilon: float = 0.35
    horizon: int = 12
    dispatch_seconds: float = 30.0
    mpc_seconds: float | None = None       # default: one model step
    gp_seconds: float = 86_400.0
    train_window_days: float = 5.0
    backlog_cost: float = 10.0
    pickup_delay_slope: float = 0.1
    solver: SolverConfig = field(default_factory=SolverConfig)
    gp_train: TrainConfig | None = None
    gp_jobs: int = field(default_factory=usable_cores)   # bank worker processes

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise InvalidInputError(
                f"unknown controller {self.controller!r}; pick one of {CONTROLLERS}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        # Finite here; the run checks cadences and the window as whole tick counts.
        for name in ("dispatch_seconds", "mpc_seconds", "gp_seconds", "train_window_days",
                     "backlog_cost", "pickup_delay_slope"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
        if self.dispatch_seconds <= 0:
            raise InvalidInputError("dispatch_seconds must be positive")
        if self.backlog_cost <= 0:
            raise InvalidInputError(f"backlog_cost must be positive, got {self.backlog_cost}")
        if self.pickup_delay_slope < 0:
            raise InvalidInputError(
                f"pickup_delay_slope must be >= 0, got {self.pickup_delay_slope}")
        if self.gp_jobs < 1:
            raise InvalidInputError(f"gp_jobs must be >= 1, got {self.gp_jobs}")


@dataclass
class SimMetrics:
    """Outcome of one run; derived rates are properties."""

    controller: str
    epsilon: float | None
    fleet: int
    requests: int
    served: int
    assigned_end: int
    waiting_end: int
    waits: np.ndarray                # seconds, one per completed pickup
    vehicle_m: np.ndarray            # (fleet, 3): customer, rebalance, pickup
    solver_wall: list[float] = field(default_factory=list)
    solver_nodes: list[int] = field(default_factory=list)
    solver_iterations: list[int] = field(default_factory=list)
    clamped: int = 0
    seed: int | None = None

    @property
    def served_fraction(self) -> float:
        return self.served / self.requests if self.requests else 0.0

    @property
    def customer_m(self) -> float:
        return float(np.sum(self.vehicle_m[:, 0]))

    @property
    def rebalance_m(self) -> float:
        return float(np.sum(self.vehicle_m[:, 1]))

    @property
    def pickup_m(self) -> float:
        return float(np.sum(self.vehicle_m[:, 2]))

    @property
    def mean_wait_s(self) -> float:
        return float(np.mean(self.waits)) if len(self.waits) else 0.0

    @property
    def median_wait_s(self) -> float:
        return float(np.median(self.waits)) if len(self.waits) else 0.0

    @property
    def total_m(self) -> float:
        return self.customer_m + self.rebalance_m + self.pickup_m


@dataclass(frozen=True)
class TickSnapshot:
    """Loop state right after one tick's phases, for outside observers.

    ``status_counts`` buckets requests by lifecycle stage: not yet
    arrived, waiting, assigned, on board, served.
    """

    tick: int
    now: float
    leg_counts: dict[str, int]       # idle / pickup / customer / rebalance
    admitted: int
    status_counts: np.ndarray        # (5,)
    vehicle_m: np.ndarray            # (fleet, 3): customer, rebalance, pickup


def _whole_ticks(value: float, tick: float, what: str, unit: str = "dispatch ticks") -> int:
    ratio = value / tick
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise InvalidInputError(
            f"{what} ({value} s) must be a positive whole number of "
            f"{tick} s {unit}")
    return int(round(ratio))


def history_grid(trips: TripTable, network: StationNetwork, end: float,
                 window_days: float) -> DemandGrid:
    """Realized counts over the training window of ``window_days`` that
    ends at ``end``; the window must be a positive whole number of model
    steps."""
    dt = network.step_seconds
    steps = _whole_ticks(window_days * DAY, dt, "training window", "model steps")
    return DemandGrid(trips, network, end - window_days * DAY, dt, steps)


def history_bank(grid: DemandGrid, end: float, cfg: TrainConfig | None = None,
                 n_jobs: int = 1) -> ForecastBank:
    """A bank trained at ``end`` on the :func:`history_grid` that ends
    there, its hour axis rebased at ``end``."""
    return train_bank(grid.counts, grid.midpoint_hours(end), grid.interval_seconds,
                      series_origin=end, window=(grid.origin, end), trained_at=end,
                      cfg=cfg or bank_train_config(), n_jobs=n_jobs)


def initial_placement(network: StationNetwork, fleet_size: int,
                      history: DemandGrid | None) -> np.ndarray:
    """Spread the fleet over stations by historical origin share, read
    from the history's :meth:`DemandGrid.origin_totals`.

    Largest-remainder rounding keeps the total exact; with no history, or
    no trip in it, the split is uniform.  Ties go to the lower station
    index.
    """
    n = network.n_stations
    totals = np.zeros(n) if history is None else history.origin_totals().astype(float)
    share = totals / totals.sum() if totals.sum() > 0 else np.full(n, 1.0 / n)
    quota = fleet_size * share
    base = np.floor(quota).astype(int)
    short = fleet_size - int(base.sum())
    if short > 0:
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:short]] += 1
    return np.repeat(np.arange(n), base)


def _euclid(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class _Run:
    """Mutable state for one simulation; `execute` drives it to the end."""

    def __init__(self, scenario: Scenario, cfg: RunConfig,
                 bank: ForecastBank | None = None):
        self.sc = scenario
        self.cfg = cfg
        net = scenario.network
        self.net = net
        tick = cfg.dispatch_seconds
        self.tick = tick
        self.n_ticks = _whole_ticks(scenario.sim_end - scenario.sim_start,
                                    tick, "simulation window")
        self.step_ticks = _whole_ticks(net.step_seconds, tick, "model step")
        mpc_seconds = cfg.mpc_seconds if cfg.mpc_seconds is not None else net.step_seconds
        self.mpc_ticks = _whole_ticks(mpc_seconds, tick, "controller cadence")
        self.gp_ticks = _whole_ticks(cfg.gp_seconds, tick, "retraining cadence")
        self.window_intervals = _whole_ticks(
            cfg.train_window_days * DAY, net.step_seconds, "training window", "model steps")

        # The live requests, read one at a time as Python scalars; only
        # ``origins`` stays an array, for the dispatch gather.
        live = scenario.trips.window(scenario.sim_start, scenario.sim_end)
        self.n_requests = len(live)
        self.origins = live.origins
        self.req_times = live.times.tolist()
        self.req_o_xy = live.origins.tolist()
        self.req_d_xy = live.dests.tolist()
        self.req_o_st = assign_stations(net.centroids, live.origins).tolist()
        self.req_d_st = assign_stations(net.centroids, live.dests).tolist()
        # 0 pending, 1 waiting, 2 assigned, 3 aboard, 4 served
        self.req_status = [0] * self.n_requests
        self.next_request = 0
        self.waiting: list[int] = []
        self.travel_time = net.travel_time.tolist()
        self.travel_distance = net.travel_distance.tolist()

        # The fleet, one entry per vehicle id.  The arrays are the state a
        # tick gathers or reduces over the fleet: ``xy`` is where an idle
        # vehicle stands, ``dest`` and ``arrives_at`` are where and when a
        # busy vehicle's task chain ends.  ``request`` and ``leg_m`` (the
        # distance credited when the current leg completes) are lists.  The
        # station array is a copy: the run must not move the scenario's fleet.
        fleet = scenario.fleet_size
        self.station = np.array(
            scenario.initial_positions if scenario.initial_positions is not None
            else initial_placement(net, fleet, self.grid.span(0, self.window_intervals)),
            dtype=int)
        self.xy = net.centroids[self.station]
        self.leg = np.full(fleet, IDLE)
        self.arrives_at = np.zeros(fleet)
        self.dest = np.full(fleet, -1)
        self.request = [-1] * fleet
        self.leg_m = [0.0] * fleet
        # A heap of (end time, id), one entry per busy vehicle: the one
        # record of when each leg ends.  No leg is ever cancelled, so every
        # entry is live.
        self.ends: list[tuple[float, int]] = []

        self.weights = CostWeights.defaults(
            net, cfg.horizon, backlog_cost=cfg.backlog_cost,
            pickup_delay_slope=cfg.pickup_delay_slope)
        # The rows, costs and bounds are the same at every control instant.
        self.program = (mpc.build_problem(net, cfg.horizon, self.weights)
                        if cfg.controller != "gbm" else None)
        self.bank = bank
        # (first control tick, end tick, quantile demand [i, j, instant, k])
        # of the current retraining period; built at its first instant.
        self.table: tuple[int, int, np.ndarray] | None = None
        self.waits: list[float] = []
        self.served = 0
        # Metres per vehicle, flat (fleet, 3): customer, rebalance, pickup.
        # Python scalars go in one at a time; NumPy copies the buffer out.
        self.vehicle_m = array.array("d", [0.0]) * (3 * scenario.fleet_size)
        self.solver_wall: list[float] = []
        self.solver_nodes: list[int] = []
        self.solver_iterations: list[int] = []
        self.clamped = 0

    @cached_property
    def grid(self) -> DemandGrid:
        """Realized counts from the training window's start to one horizon
        past the run's end.  Only ``fixed`` and ``oracle`` forecasts,
        retraining and default placement read the grid, so it is built on
        first read, not for every run; placement reads origin totals only."""
        sim_intervals = -(-self.n_ticks // self.step_ticks)
        return DemandGrid(
            self.sc.trips, self.net, self.sc.sim_start - self.cfg.train_window_days * DAY,
            self.net.step_seconds, self.window_intervals + sim_intervals + self.cfg.horizon + 1)

    # --- per-tick phases ---------------------------------------------------

    def _ledger(self) -> np.ndarray:
        """A (fleet, 3) copy of the distance ledger."""
        return np.frombuffer(self.vehicle_m).reshape(-1, 3).copy()

    def _complete_legs(self, now: float) -> None:
        # The due set is popped in full first, so a leg started below (a
        # customer leg after its pickup) completes on a later tick even if
        # it already ends by ``now``.
        ends = self.ends
        due = []
        while ends and ends[0][0] <= now:
            due.append(heapq.heappop(ends))
        leg, leg_m, ledger, status = self.leg, self.leg_m, self.vehicle_m, self.req_status
        for end, v in due:
            code, rid = leg.item(v), self.request[v]
            if code == PICKUP:
                ledger[3 * v + 2] += leg_m[v]
                self.waits.append(end - self.req_times[rid])
                status[rid] = 3
                i, j = self.req_o_st[rid], self.req_d_st[rid]
                leg[v] = CUSTOMER
                leg_m[v] = (self.travel_distance[i][j] if i != j
                            else _euclid(self.req_o_xy[rid], self.req_d_xy[rid]))
                heapq.heappush(ends, (self.arrives_at.item(v), v))
            elif code == CUSTOMER:
                ledger[3 * v] += leg_m[v]
                status[rid] = 4
                self.served += 1
                self.xy[v] = self.req_d_xy[rid]
                self.station[v] = self.req_d_st[rid]
                leg[v] = IDLE
            else:
                j = self.dest.item(v)
                ledger[3 * v + 1] += leg_m[v]
                self.xy[v] = self.net.centroids[j]
                self.station[v] = j
                leg[v] = IDLE

    def _admit(self, now: float) -> None:
        times = self.req_times
        while (self.next_request < self.n_requests
               and times[self.next_request] <= now):
            self.req_status[self.next_request] = 1
            self.waiting.append(self.next_request)
            self.next_request += 1

    def _start_pickup(self, v: int, rid: int, now: float) -> None:
        o_xy = self.req_o_xy[rid]
        i, j = self.req_o_st[rid], self.req_d_st[rid]
        speed = self.net.speed_mps
        approach = _euclid(self.xy[v].tolist(), o_xy)
        pickup_end = now + approach / speed
        ride = (self.travel_time[i][j] if i != j
                else _euclid(o_xy, self.req_d_xy[rid]) / speed)
        self.leg[v] = PICKUP
        self.request[v] = rid
        self.arrives_at[v] = pickup_end + ride
        self.dest[v] = j
        self.leg_m[v] = approach
        self.req_status[rid] = 2
        heapq.heappush(self.ends, (pickup_end, v))

    def _dispatch(self, now: float) -> None:
        """Match idle vehicles, in id order, to waiting requests, in admission order."""
        waiting = self.waiting
        idle = (self.leg == IDLE).nonzero()[0]
        if not len(idle):
            return
        pairs = assign_pickups(self.xy.take(idle, axis=0),
                               self.origins.take(waiting, axis=0))
        for vi, ri in pairs:
            self._start_pickup(int(idle[vi]), waiting[ri], now)
        status = self.req_status
        self.waiting = [r for r in waiting if status[r] == 1]

    def _interval_index(self, k_tick: int) -> int:
        """Grid interval containing tick ``k_tick`` of the live window."""
        return self.window_intervals + (k_tick // self.step_ticks)

    def _train(self, k_tick: int) -> ForecastBank:
        """A bank on the training window that ends at tick ``k_tick``."""
        end_m = self._interval_index(k_tick)
        end = self.grid.origin + end_m * self.grid.interval_seconds
        return history_bank(self.grid.span(end_m - self.window_intervals, end_m), end,
                            self.cfg.gp_train, self.cfg.gp_jobs)

    def _forecast(self, boundary: int, ticks: np.ndarray) -> ForecastTensor:
        """The demand forecast at the control ticks of the period from
        ``boundary``, indexed ``[i, j, instant, k]``.

        ``ccmpc`` asks a bank trained at the boundary tick; a bank handed
        to the run serves the first period.  ``fixed`` and
        ``oracle`` read the realized counts with zero spread: step k of an
        instant in grid interval m reads interval ``m - 1 + lead * k``,
        with ``lead`` 0 (the interval that just ended, held flat) or 1
        (the true future).  Step 0 is never planned on.
        """
        if self.cfg.controller == "ccmpc":
            if self.bank is None or boundary > 0:
                self.bank = self._train(boundary)
            return forecast_demand(self.bank, self.sc.sim_start + ticks * self.tick,
                                   self.cfg.horizon, self.net.step_seconds)
        lead = int(self.cfg.controller == "oracle")
        m = (self._interval_index(ticks)[:, None] - 1
             + lead * np.arange(self.cfg.horizon + 1))
        mean = self.grid.counts[:, :, m].astype(float)
        return ForecastTensor(mean=mean, std=np.zeros_like(mean))

    def _demand_tensor(self, k_tick: int) -> np.ndarray:
        """Quantile demand of the instant at ``k_tick``, read from its table.

        A table covers the instants from its first tick to the next
        retraining boundary or the end of the run.  It is forecast once
        and quantiled once; a control step only indexes it.
        """
        if self.table is None or k_tick >= self.table[1]:
            boundary = k_tick // self.gp_ticks * self.gp_ticks
            end = min(self.n_ticks, boundary + self.gp_ticks)
            fc = self._forecast(boundary, np.arange(k_tick, end, self.mpc_ticks))
            self.table = (k_tick, end, quantile_demand(fc.mean, fc.std, self.cfg.epsilon))
        first, _, table = self.table
        return table[:, :, (k_tick - first) // self.mpc_ticks]

    def _fleet_state(self, now: float) -> FleetState:
        idle = self.leg == IDLE
        busy = ~idle
        steps = np.ceil((self.arrives_at[busy] - now) / self.net.step_seconds)
        return FleetState(
            idle=np.bincount(self.station[idle], minlength=self.net.n_stations),
            arrivals=list(zip(self.dest[busy].tolist(),
                              np.maximum(1, steps).astype(int).tolist())))

    def _outstanding(self) -> np.ndarray:
        o_st, d_st = self.req_o_st, self.req_d_st
        pairs = [(o_st[r], d_st[r]) for r in self.waiting if o_st[r] != d_st[r]]
        return outstanding_matrix(self.net.n_stations, pairs)

    def _control(self, now: float, k_tick: int) -> None:
        state = self._fleet_state(now)
        outstanding = self._outstanding()
        demand = self._demand_tensor(k_tick)
        plan = self.program.solve(state, outstanding, demand, self.cfg.solver)
        self.solver_wall.append(plan.wall_seconds)
        self.solver_nodes.append(plan.nodes)
        self.solver_iterations.append(plan.iterations)
        plan.verify_against(self.net, state, outstanding, demand)

        # Each station sends its idle vehicles, in id order, to the planned
        # destinations in ascending order; trips past the pool are clamped.
        n = self.net.n_stations
        idle = np.flatnonzero(self.leg == IDLE)
        for i in range(n):
            pool = idle[self.station[idle] == i]
            dests = np.repeat(np.arange(n), plan.first_step[i])
            take = min(len(pool), len(dests))
            self.clamped += len(dests) - take
            v, j = pool[:take], dests[:take]
            until = now + self.net.travel_time[i, j]
            self.leg[v] = REBALANCE
            self.arrives_at[v] = until
            self.dest[v] = j
            dist = self.travel_distance[i]
            for u, vv, jj in zip(until.tolist(), v.tolist(), j.tolist()):
                self.leg_m[vv] = dist[jj]
                heapq.heappush(self.ends, (u, vv))

    # --- main loop -----------------------------------------------------------

    def _status_counts(self, legs: list[int]) -> list[int]:
        """Requests per status, read off the run's state: each assigned
        request has one vehicle on its pickup leg and each on-board request
        one on its customer leg."""
        return [self.n_requests - self.next_request, len(self.waiting),
                legs[PICKUP], legs[CUSTOMER], self.served]

    def _snapshot(self, k: int, now: float) -> TickSnapshot:
        legs = np.bincount(self.leg, minlength=4).tolist()
        return TickSnapshot(
            tick=k,
            now=now,
            leg_counts=dict(zip(LEGS, legs)),
            admitted=self.next_request,
            status_counts=np.array(self._status_counts(legs)),
            vehicle_m=self._ledger(),
        )

    def execute(self, on_tick=None) -> SimMetrics:
        cfg = self.cfg
        uses_mpc = cfg.controller != "gbm"
        # A phase runs only on a tick that has work for it: a leg due, a
        # request due, a request waiting.
        ends, times = self.ends, self.req_times
        for k in range(self.n_ticks):
            now = self.sc.sim_start + k * self.tick
            if ends and ends[0][0] <= now:
                self._complete_legs(now)
            if self.next_request < self.n_requests and times[self.next_request] <= now:
                self._admit(now)
            if self.waiting:
                self._dispatch(now)
            if uses_mpc and k % self.mpc_ticks == 0:
                self._control(now, k)
            if on_tick is not None:
                on_tick(self._snapshot(k, now))
        self._complete_legs(self.sc.sim_end)
        self._admit(self.sc.sim_end)
        if on_tick is not None:
            on_tick(self._snapshot(self.n_ticks, self.sc.sim_end))

        counts = self._status_counts(np.bincount(self.leg, minlength=4).tolist())
        return SimMetrics(
            controller=cfg.controller,
            epsilon=cfg.epsilon if cfg.controller == "ccmpc" else None,
            fleet=self.sc.fleet_size,
            requests=self.n_requests,
            served=self.served,
            assigned_end=counts[2] + counts[3],
            waiting_end=counts[1],
            waits=np.asarray(self.waits),
            vehicle_m=self._ledger(),
            solver_wall=self.solver_wall,
            solver_nodes=self.solver_nodes,
            solver_iterations=self.solver_iterations,
            clamped=self.clamped,
        )


def run_simulation(scenario: Scenario, cfg: RunConfig | None = None,
                   bank: ForecastBank | None = None,
                   on_tick=None) -> SimMetrics:
    """Simulate one scenario under one controller configuration.

    A pre-trained forecast bank may be passed to skip the initial
    training (scheduled retrains still happen); it must have been built
    against the same station network and interval size.  ``on_tick``,
    if given, is called with a :class:`TickSnapshot` after every tick
    and once more after the end-of-day wrap-up.
    """
    cfg = cfg or RunConfig()
    if bank is not None:
        if bank.n_stations != scenario.network.n_stations:
            raise InvalidInputError("forecast bank does not match the network")
        if abs(bank.interval_seconds - scenario.network.step_seconds) > 1e-9:
            raise InvalidInputError(
                "forecast bank interval does not match the network step")
        if abs(bank.series_origin - scenario.sim_start) > 1e-6:
            raise InvalidInputError(
                "forecast bank hour axis must be rebased at sim_start; "
                "train with the window ending there")
    return _Run(scenario, cfg, bank=bank).execute(on_tick=on_tick)


# --- benchmark workload ---------------------------------------------------------


BENCHMARK_EPOCH = 1_600_000_000.0       # arbitrary whole-day anchor


def benchmark_network() -> StationNetwork:
    """Fixed ten-station layout on a 10 km grid, 10 m/s travel."""
    pts = np.array([
        [0.0, 0.0], [5000.0, 0.0], [10000.0, 0.0],
        [0.0, 5000.0], [5000.0, 5000.0], [10000.0, 5000.0],
        [0.0, 10000.0], [5000.0, 10000.0], [10000.0, 10000.0],
        [2500.0, 7500.0],
    ])
    return StationNetwork.from_centroids(pts, speed_mps=10.0, step_seconds=900.0)


def benchmark_flows() -> list[DemandFlow]:
    """Commute surges over a uniform background.

    Morning pushes the south-west corner toward the north-east, the
    evening reverses it, and a wide low-rate background keeps every
    station pair alive.  Day-to-day intensity varies and the commute
    peaks drift around the clock, so a forecaster only ever sees the
    pattern, never the day.
    """
    sw = (1000.0, 1000.0)
    ne = (9000.0, 9000.0)
    center = (5000.0, 5000.0)
    return [
        DemandFlow(origin=sw, dest=ne, spread=2500.0,
                   profile=[(7.0, 10.0, 220.0)],
                   day_jitter=0.25, peak_jitter=0.75),
        DemandFlow(origin=ne, dest=sw, spread=2500.0,
                   profile=[(16.0, 19.0, 220.0)],
                   day_jitter=0.25, peak_jitter=0.75),
        DemandFlow(origin=center, dest=center, spread=6000.0,
                   profile=[(0.0, 24.0, 70.0)], day_jitter=0.10),
    ]


def benchmark_scenario(seed: int, fleet_size: int = 300,
                       history_days: float = 5.0,
                       sim_days: float = 1.0) -> Scenario:
    """History plus one live day on the fixed benchmark city."""
    net = benchmark_network()
    start = BENCHMARK_EPOCH + history_days * DAY
    trips = synth_demand(benchmark_flows(),
                         start_epoch=BENCHMARK_EPOCH,
                         days=history_days + sim_days,
                         seed=seed)
    return Scenario(network=net, trips=trips, sim_start=start,
                    sim_end=start + sim_days * DAY, fleet_size=fleet_size)


def _sweep_worker(args) -> list[SimMetrics]:
    seed, epsilons, cfg, make_scenario = args
    scenario = make_scenario(seed)
    grid = history_grid(scenario.trips, scenario.network, scenario.sim_start,
                        cfg.train_window_days)
    bank = history_bank(grid, scenario.sim_start, cfg.gp_train, cfg.gp_jobs)
    rows: list[SimMetrics] = []
    for eps in epsilons:
        m = run_simulation(scenario, replace(cfg, controller="ccmpc", epsilon=float(eps)),
                           bank=bank)
        m.seed = seed
        rows.append(m)
    return rows


def sweep_epsilon(
    seeds: list[int],
    epsilons: list[float],
    cfg: RunConfig | None = None,
    make_scenario: Callable[[int], Scenario] = benchmark_scenario,
) -> list[SimMetrics]:
    """Risk-level sweep: same trip streams, varying epsilon only.

    Each seed's scenario and forecast bank are built once and shared by
    every epsilon, so rows differ only through the controller's risk
    appetite.  The sweep splits ``cfg.gp_jobs`` processes: seeds run on
    ``min(gp_jobs, len(seeds))`` of them, and each seed trains its bank
    on ``gp_jobs`` floor-divided by that (1 trains in-process).  Rows do
    not depend on the split.
    """
    cfg = cfg or RunConfig()
    workers = max(1, min(cfg.gp_jobs, len(seeds)))
    cfg = replace(cfg, gp_jobs=cfg.gp_jobs // workers)
    jobs = [(seed, list(epsilons), cfg, make_scenario) for seed in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_worker, jobs))
    else:
        chunks = [_sweep_worker(j) for j in jobs]
    return [m for chunk in chunks for m in chunk]
