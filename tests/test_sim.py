"""Simulation loop tests.

Micro-scenarios with station-centered requests make waits and distances
exactly predictable, so the loop's bookkeeping can be checked to the
last meter; the conservation sweep then exercises every controller on a
synthetic workload with per-tick invariant assertions.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amodcc import sim
from amodcc.demand import DemandFlow, TripTable, synth_demand
from amodcc.errors import InvalidInputError
from amodcc.forecast import forecast_demand, train_bank
from amodcc.ilp import SolverConfig
from amodcc.mpc import quantile_demand
from amodcc.network import StationNetwork, assign_stations
from amodcc.sim import (DemandGrid, RunConfig, Scenario, _Run, benchmark_flows,
                        benchmark_network, benchmark_scenario,
                        initial_placement, run_simulation)
from test_network import argmin_nearest


def two_station_net(step=300.0):
    pts = np.array([[0.0, 0.0], [3000.0, 0.0]])
    return StationNetwork.from_centroids(pts, speed_mps=10.0, step_seconds=step)


def table(rows):
    """rows of (t, origin_xy, dest_xy), already time-sorted."""
    return TripTable(times=[r[0] for r in rows],
                     origins=[r[1] for r in rows],
                     dests=[r[2] for r in rows])


A = (0.0, 0.0)
B = (3000.0, 0.0)


# --- construction and validation ------------------------------------------------


def test_scenario_validation():
    net = two_station_net()
    trips = table([(10.0, A, B)])
    with pytest.raises(InvalidInputError, match="sim_end"):
        Scenario(network=net, trips=trips, sim_start=100.0, sim_end=100.0,
                 fleet_size=1)
    with pytest.raises(InvalidInputError, match="fleet_size"):
        Scenario(network=net, trips=trips, sim_start=0.0, sim_end=600.0,
                 fleet_size=0)
    with pytest.raises(InvalidInputError, match="every vehicle"):
        Scenario(network=net, trips=trips, sim_start=0.0, sim_end=600.0,
                 fleet_size=2, initial_positions=[0])
    with pytest.raises(InvalidInputError, match="out of range"):
        Scenario(network=net, trips=trips, sim_start=0.0, sim_end=600.0,
                 fleet_size=2, initial_positions=[0, 5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["sim_start", "sim_end"])
def test_scenario_rejects_non_finite_times(name, bad):
    # A NaN start used to construct and fail only in the run, as a
    # simulation window of "nan s".
    times = {"sim_start": 0.0, "sim_end": 600.0, name: bad}
    with pytest.raises(InvalidInputError, match=f"{name} must be finite, got {bad}"):
        Scenario(network=two_station_net(), trips=table([(10.0, A, B)]), fleet_size=1,
                 **times)


def test_run_config_validation():
    with pytest.raises(InvalidInputError, match="unknown controller"):
        RunConfig(controller="mpc")
    with pytest.raises(InvalidInputError, match="epsilon"):
        RunConfig(epsilon=0.0)
    with pytest.raises(InvalidInputError, match="horizon"):
        RunConfig(horizon=0)
    with pytest.raises(InvalidInputError, match="dispatch"):
        RunConfig(dispatch_seconds=0.0)
    with pytest.raises(InvalidInputError, match="gp_jobs"):
        RunConfig(gp_jobs=0)
    # Every float must be finite; the costs have their own domains.
    for name in ("dispatch_seconds", "mpc_seconds", "gp_seconds", "train_window_days",
                 "backlog_cost", "pickup_delay_slope"):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match=f"{name} must be finite, got {bad}"):
                RunConfig(**{name: bad})
    with pytest.raises(InvalidInputError, match="backlog_cost must be positive"):
        RunConfig(backlog_cost=0.0)
    with pytest.raises(InvalidInputError, match="pickup_delay_slope must be >= 0"):
        RunConfig(pickup_delay_slope=-0.1)
    RunConfig(pickup_delay_slope=0.0)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(InvalidInputError, match="time_limit_s must be finite and positive"):
            SolverConfig(time_limit_s=bad)


def test_cadences_must_divide_into_ticks():
    net = two_station_net()
    sc = Scenario(network=net, trips=table([(10.0, A, B)]),
                  sim_start=0.0, sim_end=3600.0, fleet_size=1)
    with pytest.raises(InvalidInputError, match="controller cadence"):
        run_simulation(sc, RunConfig(controller="fixed", mpc_seconds=45.0))
    with pytest.raises(InvalidInputError, match="simulation window"):
        run_simulation(Scenario(network=net, trips=table([(10.0, A, B)]),
                                sim_start=0.0, sim_end=3601.0, fleet_size=1),
                       RunConfig(controller="gbm"))
    # A ratio that is not finite is no whole number of ticks either.
    for days in (np.nan, np.inf, 1e308):
        with pytest.raises(InvalidInputError, match="training window"):
            sim.history_grid(sc.trips, net, 3600.0, days)


def test_bank_must_match_network():
    some_bank = train_bank(np.zeros((3, 3, 8)), np.arange(8) + 0.5, 900.0,
                           series_origin=0.0, window=(0.0, 8 * 900.0),
                           trained_at=0.0)
    sc = Scenario(network=two_station_net(), trips=table([(10.0, A, B)]),
                  sim_start=0.0, sim_end=3600.0, fleet_size=1)
    with pytest.raises(InvalidInputError, match="bank"):
        run_simulation(sc, RunConfig(controller="ccmpc"), bank=some_bank)


# --- demand grid ----------------------------------------------------------------


def test_demand_grid_bins_by_interval():
    net = two_station_net(step=600.0)
    trips = table([
        (-1.0, A, B),       # before the grid: dropped
        (0.0, A, B),        # interval 0 (left edge inclusive)
        (599.9, A, B),      # still interval 0
        (600.0, B, A),      # interval 1
        (1250.0, A, B),     # interval 2
        (3000.0, A, B),     # past the grid: dropped
    ])
    grid = DemandGrid(trips, net, origin_epoch=0.0, interval_seconds=600.0,
                      n_intervals=3)
    assert grid.counts[0, 1].tolist() == [2, 0, 1]
    assert grid.counts[1, 0].tolist() == [0, 1, 0]
    assert grid.counts.sum() == 4
    assert grid.midpoint_hours(0.0) == pytest.approx([300 / 3600, 900 / 3600,
                                                      1500 / 3600])


def add_at_grid(trips, net, origin, interval, n_intervals):
    """The demand grid by its definition: every trip in the table through
    the interval test, counted one at a time with np.add.at."""
    n = net.n_stations
    counts = np.zeros((n, n, n_intervals), dtype=np.int64)
    m = np.floor((trips.times - origin) / interval).astype(int)
    keep = (m >= 0) & (m < n_intervals)
    o = argmin_nearest(net.centroids, trips.origins[keep])
    d = argmin_nearest(net.centroids, trips.dests[keep])
    np.add.at(counts, (o, d, m[keep]), 1)
    return counts


@pytest.mark.parametrize("origin, interval, n_intervals", [
    (1.7e9, 600.0, 5),           # an epoch-sized origin, whose ulp is 2.4e-7 s
    (1_700_000_123.4, 7.3, 40),  # a step that is no binary fraction
    (0.0, 600.0, 3),
    (1.7e9, 900.0, 0),           # an empty window
])
def test_demand_grid_matches_binning_every_trip(origin, interval, n_intervals):
    net = benchmark_network()
    end = origin + n_intervals * interval
    below = np.nextafter
    edges = [origin, end, below(end, -np.inf), below(origin, -np.inf),
             below(origin, np.inf), origin - interval, end + interval,
             below(origin - interval, -np.inf), below(end + interval, np.inf)]
    edges += [origin + k * interval for k in range(1, n_intervals)]
    edges += [below(origin + k * interval, -np.inf) for k in range(1, n_intervals)]
    rng = np.random.default_rng(12)
    inside = origin + rng.uniform(0, max(n_intervals, 1) * interval, size=200)
    outside = np.concatenate([origin - rng.uniform(0, 1e6, size=50),
                              end + rng.uniform(0, 1e6, size=50)])
    times = np.sort(np.concatenate([edges, edges, inside, outside]))
    points = rng.uniform(-8000.0, 8000.0, size=(2, times.size, 2))
    trips = TripTable(times=times, origins=points[0], dests=points[1])
    grid = DemandGrid(trips, net, origin, interval, n_intervals)
    want = add_at_grid(trips, net, origin, interval, n_intervals)
    assert grid.counts.dtype == want.dtype and grid.counts.shape == want.shape
    assert np.array_equal(grid.counts, want)
    if n_intervals:
        # The edges themselves: the start is in, start + n intervals is out
        # and one ulp below it is in.  (One ulp below a start of 0 is a
        # subnormal whose quotient rounds to -0.0, so the test keeps it.)
        m = np.floor((np.array(edges[:3]) - origin) / interval)
        assert m.tolist() == [0, n_intervals, n_intervals - 1]


def test_demand_grid_of_no_trips():
    net = two_station_net()
    grid = DemandGrid(table([]), net, origin_epoch=0.0, interval_seconds=600.0,
                      n_intervals=4)
    assert grid.counts.shape == (2, 2, 4) and grid.counts.dtype == np.int64
    assert not grid.counts.any()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_origin_totals_sum_the_counts_of_a_grid_and_its_spans(data):
    # Origin totals come from the origin labels alone, before any counts
    # are read; a span's counts stay a view of its parent's.
    net = benchmark_network()
    n_intervals = data.draw(st.integers(0, 12))
    interval = data.draw(st.sampled_from([7.3, 600.0, 900.0]))
    origin = data.draw(st.sampled_from([0.0, 1.7e9]))
    size = data.draw(st.integers(0, 80))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    times = np.sort(origin + rng.uniform(-2, n_intervals + 2, size=size) * interval)
    points = rng.uniform(-8000.0, 8000.0, size=(2, size, 2))
    grid = DemandGrid(TripTable(times=times, origins=points[0], dests=points[1]),
                      net, origin, interval, n_intervals)
    lo = data.draw(st.integers(0, n_intervals))
    span = grid.span(lo, data.draw(st.integers(lo, n_intervals)))
    inner_lo = data.draw(st.integers(0, span.n_intervals))
    inner = span.span(inner_lo, data.draw(st.integers(inner_lo, span.n_intervals)))
    totals = [g.origin_totals() for g in (inner, span, grid)]
    for g, got in zip((inner, span, grid), totals):
        assert np.array_equal(got, g.counts.sum(axis=(1, 2)))
    # Views of one buffer, even when empty (which shares no memory).
    assert span.counts.base is inner.counts.base is grid.counts.base is not None
    if inner.counts.size:
        assert np.shares_memory(inner.counts, span.counts)
    # A span taken after its parent's counts were read.
    late = span.span(inner_lo, inner.n_intervals + inner_lo)
    assert np.array_equal(late.counts, span.counts[:, :, inner_lo:inner_lo + inner.n_intervals])
    assert np.array_equal(late.origin_totals(), inner.origin_totals())


def test_a_grid_labels_destinations_only_when_its_counts_are_read(monkeypatch):
    # Fleet placement reads origin totals: building a grid and placing a
    # fleet label each window trip's origin once and no destination.  The
    # first read of the counts labels each destination once; a second
    # read, or a span's counts, labels nothing.
    labelled = []

    def counted(centroids, points):
        labelled.append(np.array(points))
        return assign_stations(centroids, points)

    monkeypatch.setattr(sim, "assign_stations", counted)
    net = benchmark_network()
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(-2.5, 8.5, size=300)) * 900.0
    points = rng.uniform(-8000.0, 8000.0, size=(2, times.size, 2))
    in_window = (times >= 0.0) & (times < 6 * 900.0)
    grid = DemandGrid(TripTable(times=times, origins=points[0], dests=points[1]),
                      net, 0.0, 900.0, 6)
    initial_placement(net, 40, grid)
    initial_placement(net, 40, grid.span(1, 4))
    assert len(labelled) == 1 and np.array_equal(labelled[0], points[0][in_window])
    grid.counts
    assert len(labelled) == 2 and np.array_equal(labelled[1], points[1][in_window])
    grid.counts
    grid.span(2, 5).counts
    grid.span(0, 6).span(1, 3).counts
    assert len(labelled) == 2

    # A run placed from history labels its grid's origins and its live
    # requests' endpoints, and no history destination.
    sc = table_scenario()
    labelled.clear()
    run = _Run(sc, RunConfig(controller="gbm", horizon=4, train_window_days=1.0))
    live = len(sc.trips.window(sc.sim_start, sc.sim_end))
    assert sum(map(len, labelled)) == run.grid.origin_totals().sum() + 2 * live


# --- initial placement ----------------------------------------------------------


def test_placement_uniform_without_history():
    net = StationNetwork.from_centroids(
        np.array([[0.0, 0], [1000.0, 0], [2000.0, 0], [3000.0, 0]]),
        speed_mps=10.0, step_seconds=300.0)
    pos = initial_placement(net, 10, None)
    assert len(pos) == 10
    counts = np.bincount(pos, minlength=4)
    assert counts.tolist() == [3, 3, 2, 2]     # remainder ties break low


def test_placement_follows_historical_origins():
    net = two_station_net()
    hist = DemandGrid(table([(50.0, B, A), (150.0, B, A), (250.0, B, A),
                             (350.0, A, B)]),
                      net, origin_epoch=0.0, interval_seconds=600.0,
                      n_intervals=1)
    pos = initial_placement(net, 4, hist)
    assert np.bincount(pos, minlength=2).tolist() == [1, 3]


# --- exact micro-runs -----------------------------------------------------------


def micro_scenario(fleet=2):
    # Requests sit exactly on station centroids, so approach legs are zero
    # and every distance is a whole travel-matrix entry.
    net = two_station_net()
    trips = table([(30.0, A, B), (155.0, B, A)])
    return Scenario(network=net, trips=trips, sim_start=0.0, sim_end=3600.0,
                    fleet_size=fleet, initial_positions=list(range(fleet)))


def test_reactive_run_is_exact():
    snaps = []
    m = run_simulation(micro_scenario(), RunConfig(controller="gbm"),
                       on_tick=snaps.append)
    assert m.served == 2 and m.requests == 2
    assert m.served_fraction == 1.0
    assert m.assigned_end == 0 and m.waiting_end == 0
    # First rider is picked up on the admitting tick; the second arrives at
    # t=155 and waits for the t=180 tick.
    assert sorted(m.waits.tolist()) == [0.0, 25.0]
    assert m.customer_m == 6000.0
    assert m.pickup_m == 0.0
    assert m.rebalance_m == 0.0                 # reactive: never rebalances
    assert m.total_m == 6000.0
    assert len(snaps) == 121                    # one per tick plus wrap-up
    assert np.array_equal(snaps[-1].vehicle_m, m.vehicle_m)
    for s in snaps:
        assert sum(s.leg_counts.values()) == 2
        assert int(s.status_counts.sum()) == 2
        assert int(s.status_counts[1:].sum()) == s.admitted


def test_oracle_prepositions_for_known_demand():
    # Single vehicle at station 0; the only request leaves station 1 late
    # enough that a planned rebalance beats any reactive pickup.
    net = two_station_net()
    sc = Scenario(network=net, trips=table([(2000.0, B, A)]),
                  sim_start=0.0, sim_end=3600.0, fleet_size=1,
                  initial_positions=[0])
    m = run_simulation(sc, RunConfig(controller="oracle"))
    assert m.served == 1
    assert m.rebalance_m == 3000.0
    assert m.pickup_m == 0.0
    assert m.waits[0] <= 900.0
    reactive = run_simulation(sc, RunConfig(controller="gbm"))
    assert m.waits[0] < reactive.waits[0]


def test_legs_ending_together_complete_in_vehicle_order():
    # Vehicle 1 starts a 45 s pickup at t=30 and vehicle 0 a 15 s pickup
    # at t=60; both end at t=75 and complete on the t=90 tick.  Vehicle 0
    # goes first although its leg started later, so its rider's wait is
    # recorded first.
    trips = table([(20.0, (2550.0, 0.0), A), (50.0, (150.0, 0.0), B)])
    sc = Scenario(network=two_station_net(), trips=trips, sim_start=0.0,
                  sim_end=600.0, fleet_size=2, initial_positions=[0, 1])
    snaps = []
    m = run_simulation(sc, RunConfig(controller="gbm"), on_tick=snaps.append)
    assert snaps[2].leg_counts["pickup"] == 2
    assert snaps[3].leg_counts["customer"] == 2
    assert m.waits.tolist() == [25.0, 55.0]


def test_leg_started_while_completing_waits_for_the_next_tick():
    # Origin equals destination: the customer leg has zero length and
    # ends as soon as the pickup does, yet it completes one tick later.
    sc = Scenario(network=two_station_net(), trips=table([(10.0, A, A)]),
                  sim_start=0.0, sim_end=600.0, fleet_size=1,
                  initial_positions=[0])
    snaps = []
    m = run_simulation(sc, RunConfig(controller="gbm"), on_tick=snaps.append)
    legs = [(s.leg_counts["pickup"], s.leg_counts["customer"]) for s in snaps[:4]]
    assert legs == [(0, 0), (1, 0), (0, 1), (0, 0)]
    # not yet arrived, assigned, on board, served
    statuses = [s.status_counts.tolist() for s in snaps[:4]]
    assert statuses == [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert m.served == 1 and m.waits.tolist() == [20.0]
    assert m.customer_m == 0.0


@pytest.mark.parametrize("controller", sim.CONTROLLERS)
def test_request_is_matched_across_stations_on_its_first_tick(controller):
    # The one vehicle idles at station 0 and the request waits at station
    # 1.  Every controller dispatches over the whole fleet, so the pickup
    # starts on the admitting tick, before any plan could move the vehicle.
    sc = Scenario(network=two_station_net(), trips=table([(0.0, B, A)]),
                  sim_start=0.0, sim_end=600.0, fleet_size=1,
                  initial_positions=[0])
    snaps = []
    m = run_simulation(sc, RunConfig(controller=controller), on_tick=snaps.append)
    assert snaps[0].leg_counts["pickup"] == 1
    assert snaps[0].status_counts.tolist() == [0, 0, 1, 0, 0]
    assert m.waits.tolist() == [300.0]
    assert m.pickup_m == 3000.0 and m.rebalance_m == 0.0


def test_runs_are_deterministic():
    flows = [DemandFlow(origin=A, dest=B, spread=400.0,
                        profile=[(0.0, 24.0, 30.0)]),
             DemandFlow(origin=B, dest=A, spread=400.0,
                        profile=[(0.0, 24.0, 20.0)])]
    trips = synth_demand(flows, 0.0, 0.25, seed=11)
    sc = Scenario(network=two_station_net(), trips=trips, sim_start=0.0,
                  sim_end=6 * 3600.0, fleet_size=6)
    a = run_simulation(sc, RunConfig(controller="fixed"))
    b = run_simulation(sc, RunConfig(controller="fixed"))
    assert np.array_equal(a.waits, b.waits)
    assert np.array_equal(a.vehicle_m, b.vehicle_m)
    assert a.served == b.served


def test_runs_from_explicit_positions_repeat_and_leave_them_alone():
    # A run keeps its own copy of the fleet's stations: moving vehicles
    # must not move the scenario's (or the caller's) initial positions.
    flows = [DemandFlow(origin=A, dest=B, spread=400.0,
                        profile=[(0.0, 24.0, 30.0)]),
             DemandFlow(origin=B, dest=A, spread=400.0,
                        profile=[(0.0, 24.0, 5.0)])]
    trips = synth_demand(flows, 0.0, 0.25, seed=11)
    positions = np.array([0, 0, 0, 0, 1, 1])
    sc = Scenario(network=two_station_net(), trips=trips, sim_start=0.0,
                  sim_end=6 * 3600.0, fleet_size=6,
                  initial_positions=positions)
    a = run_simulation(sc, RunConfig(controller="fixed"))
    b = run_simulation(sc, RunConfig(controller="fixed"))
    assert np.array_equal(a.waits, b.waits)
    assert np.array_equal(a.vehicle_m, b.vehicle_m)
    assert a.served == b.served
    assert np.array_equal(positions, [0, 0, 0, 0, 1, 1])
    assert np.array_equal(sc.initial_positions, [0, 0, 0, 0, 1, 1])


# --- conservation sweep ---------------------------------------------------------


def three_station_scenario(seed, history_days, live_hours, trip_days,
                           step=300.0):
    pts = np.array([[0.0, 0.0], [4000.0, 0.0], [2000.0, 3000.0]])
    net = StationNetwork.from_centroids(pts, speed_mps=10.0, step_seconds=step)
    flows = [DemandFlow(origin=(0.0, 0.0), dest=(4000.0, 0.0), spread=600.0,
                        profile=[(0.0, 24.0, 40.0)]),
             DemandFlow(origin=(2000.0, 3000.0), dest=(0.0, 0.0), spread=600.0,
                        profile=[(2.0, 5.0, 60.0)])]
    trips = synth_demand(flows, 0.0, trip_days, seed=seed)
    start = history_days * 86_400.0
    return Scenario(network=net, trips=trips, sim_start=start,
                    sim_end=start + live_hours * 3600.0, fleet_size=10)


def conservation_scenario():
    return three_station_scenario(23, history_days=1.0, live_hours=6.0,
                                  trip_days=2.0)


@pytest.mark.parametrize("controller", ["gbm", "fixed", "oracle", "ccmpc"])
def test_every_tick_conserves_fleet_and_requests(controller):
    sc = conservation_scenario()
    cfg = RunConfig(controller=controller, horizon=4,
                    train_window_days=1.0, epsilon=0.35)
    seen = []

    def check(s):
        assert sum(s.leg_counts.values()) == sc.fleet_size
        assert int(s.status_counts.sum()) == len(
            sc.trips.window(sc.sim_start, sc.sim_end))
        assert int(s.status_counts[1:].sum()) == s.admitted
        if seen:
            prev = seen[-1]
            assert s.admitted >= prev.admitted
            assert np.all(s.vehicle_m >= prev.vehicle_m)
        seen.append(s)

    m = run_simulation(sc, cfg, on_tick=check)
    assert len(seen) == 721
    assert m.served + m.assigned_end + m.waiting_end <= m.requests
    final = seen[-1]
    assert np.array_equal(final.vehicle_m, m.vehicle_m)
    assert m.total_m == pytest.approx(final.vehicle_m.sum())
    if controller == "gbm":
        assert m.rebalance_m == 0.0
    else:
        assert len(m.solver_wall) > 0


# --- forecast tables -----------------------------------------------------------


def table_scenario():
    """The conservation city on a 900 s step: 6 live hours after a day."""
    return three_station_scenario(23, history_days=1.0, live_hours=6.0,
                                  trip_days=2.0, step=900.0)


@pytest.mark.parametrize("mpc_seconds, gp_seconds, banks", [
    (None, 86_400.0, 1),      # one instant per model step
    (300.0, 86_400.0, 1),     # three instants per step, off the step grid
    (None, 7_200.0, 3),       # retrains at 2 h and 4 h
    (2700.0, 7_200.0, 3),     # instants at 0, 45 and 90 min: none on a retrain
])
def test_runs_plan_from_one_table_per_bank(mpc_seconds, gp_seconds, banks, monkeypatch):
    # The run forecasts once per bank, over every instant that bank plans.
    # At each instant the table's slice equals that instant's own
    # per-flow queries to 1e-12, and the demand it plans on is the very
    # quantile demand of those queries.  Each bank is trained at its
    # retraining boundary, even when no instant falls on it.
    sc = table_scenario()
    cfg = RunConfig(controller="ccmpc", horizon=4, train_window_days=1.0,
                    mpc_seconds=mpc_seconds, gp_seconds=gp_seconds)
    tables = []

    def recorded(bank, t0, horizon, step_seconds):
        fc = forecast_demand(bank, t0, horizon, step_seconds)
        tables.append((bank, np.asarray(t0), fc))
        return fc

    monkeypatch.setattr(sim, "forecast_demand", recorded)
    run = _Run(sc, cfg)
    planned = []
    demand_tensor = run._demand_tensor

    def record_demand(k_tick):
        demand = demand_tensor(k_tick)
        planned.append((k_tick, run.bank, demand))
        return demand

    run._demand_tensor = record_demand
    run.execute()

    dt = sc.network.step_seconds
    every = int(round((mpc_seconds or dt) / cfg.dispatch_seconds))
    assert [k for k, _, _ in planned] == list(range(0, run.n_ticks, every))
    assert len(tables) == len({id(b) for _, b, _ in planned}) == banks
    instants = np.concatenate([t0 for _, t0, _ in tables])
    assert np.array_equal(instants, sc.sim_start + np.array([k for k, _, _ in planned])
                          * cfg.dispatch_seconds)
    n = sc.network.n_stations
    at = {}
    for bank, t0, fc in tables:
        assert fc.mean.shape == fc.std.shape == (n, n, t0.size, cfg.horizon + 1)
        for row, t in enumerate(t0):
            at[t] = (bank, fc.mean[:, :, row], fc.std[:, :, row])
    gp_ticks = int(round(gp_seconds / cfg.dispatch_seconds))
    for k, bank, demand in planned:
        now = sc.sim_start + k * cfg.dispatch_seconds
        table_bank, mean, std = at[now]
        assert table_bank is bank
        boundary = sc.sim_start + k // gp_ticks * gp_ticks * cfg.dispatch_seconds
        assert bank.trained_at == bank.window[1] == boundary
        q = (now - bank.series_origin + (np.arange(cfg.horizon + 1) - 0.5) * dt) / 3600.0
        ref_mean = np.zeros((n, n, cfg.horizon + 1))
        ref_std = np.zeros((n, n, cfg.horizon + 1))
        for i in range(n):
            for j in range(n):
                ref_mean[i, j], ref_std[i, j] = bank.models[i][j].predict(q)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12
        assert np.max(np.abs(std - ref_std)) <= 1e-12
        assert np.array_equal(demand, quantile_demand(ref_mean, ref_std, cfg.epsilon))


def realized_demand(run, now, lead):
    """What ``fixed`` (lead 0) and ``oracle`` (lead 1) plan on at ``now``.

    ``fixed`` holds the interval that just ended flat over the horizon;
    ``oracle`` plans step k on the interval k - 1 after the current one.
    Step 0 is never planned on and stays zero, as does the diagonal.
    """
    grid = run.grid
    n, steps = run.net.n_stations, run.cfg.horizon + 1
    m = int((now - grid.origin) // grid.interval_seconds)
    demand = np.zeros((n, n, steps), dtype=np.int64)
    if lead:
        demand[:, :, 1:] = grid.counts[:, :, m:m + steps - 1]
    else:
        demand[:, :, 1:] = grid.counts[:, :, m - 1][:, :, None]
    idx = np.arange(n)
    demand[idx, idx, :] = 0
    return demand


@pytest.mark.parametrize("controller, lead", [("fixed", 0), ("oracle", 1)])
@pytest.mark.parametrize("mpc_seconds, gp_seconds", [
    (None, 86_400.0), (300.0, 86_400.0), (2700.0, 7_200.0)])
def test_realized_controllers_plan_on_the_grid_counts(controller, lead, mpc_seconds,
                                                      gp_seconds):
    # ``fixed`` and ``oracle`` read their tables from the realized counts;
    # every step they plan on must be exactly the reference's.
    sc = table_scenario()
    cfg = RunConfig(controller=controller, horizon=4, train_window_days=1.0,
                    mpc_seconds=mpc_seconds, gp_seconds=gp_seconds)
    run = _Run(sc, cfg)
    planned = []
    demand_tensor = run._demand_tensor

    def record_demand(k_tick):
        planned.append((k_tick, demand_tensor(k_tick)))
        return planned[-1][1]

    run._demand_tensor = record_demand
    run.execute()
    every = int(round((mpc_seconds or sc.network.step_seconds) / cfg.dispatch_seconds))
    assert [k for k, _ in planned] == list(range(0, run.n_ticks, every))
    for k, demand in planned:
        ref = realized_demand(run, sc.sim_start + k * cfg.dispatch_seconds, lead)
        assert demand.dtype == np.int64
        assert np.array_equal(demand[:, :, 1:], ref[:, :, 1:])
    assert sum(int(d[:, :, 1:].sum()) for _, d in planned) > 0


def test_run_with_a_mid_run_retrain_repeats_exactly():
    sc = table_scenario()
    cfg = RunConfig(controller="ccmpc", horizon=4, train_window_days=1.0,
                    gp_seconds=7_200.0)
    a, b = run_simulation(sc, cfg), run_simulation(sc, cfg)
    assert len(a.solver_nodes) == 24
    assert a.solver_nodes == b.solver_nodes
    assert np.array_equal(a.waits, b.waits)
    assert np.array_equal(a.vehicle_m, b.vehicle_m)
    assert (a.served, a.assigned_end, a.waiting_end, a.clamped) == \
        (b.served, b.assigned_end, b.waiting_end, b.clamped)


def test_only_runs_that_read_realized_counts_bin_the_trips(monkeypatch):
    # Binning every trip into the demand grid is most of a run's set-up.
    # Only fixed and oracle forecasts, retraining and default placement
    # read it, so a run bins the trips on first read, and at most once.
    sc = table_scenario()
    cfg = RunConfig(horizon=4, train_window_days=1.0)
    bank = _Run(sc, replace(cfg, controller="ccmpc"))._train(0)
    placed = replace(sc, initial_positions=np.zeros(sc.fleet_size, dtype=int))
    built = []
    monkeypatch.setattr(sim, "DemandGrid", lambda *args: built.append(args) or DemandGrid(*args))

    def grids(scenario, bank=None, **changes):
        built.clear()
        run_simulation(scenario, replace(cfg, **changes), bank=bank)
        return len(built)

    assert grids(placed, controller="gbm") == 0
    assert grids(placed, bank, controller="ccmpc") == 0
    assert grids(sc, controller="gbm") == 1                  # default placement
    assert grids(placed, controller="fixed") == 1
    assert grids(placed, controller="oracle") == 1
    assert grids(placed, controller="ccmpc") == 1            # trains its first bank
    assert grids(placed, bank, controller="ccmpc", gp_seconds=7_200.0) == 1


# --- risk sweep -----------------------------------------------------------------


def same_run(a, b):
    """Two runs with the same service outcome and the same solves."""
    assert np.array_equal(a.waits, b.waits)
    assert np.array_equal(a.vehicle_m, b.vehicle_m)
    assert (a.served, a.assigned_end, a.waiting_end, a.clamped) == \
        (b.served, b.assigned_end, b.waiting_end, b.clamped)
    assert a.solver_nodes == b.solver_nodes


def sweep_scenario(seed):
    return three_station_scenario(seed, history_days=2.0, live_hours=3.0,
                                  trip_days=2.125, step=900.0)


def test_sweep_shares_one_bank_per_seed(monkeypatch):
    banks = []

    def counted(*args, **kwargs):
        banks.append(train_bank(*args, **kwargs))
        return banks[-1]

    monkeypatch.setattr(sim, "train_bank", counted)
    # One process: the seeds and their banks train here, where the counter is.
    cfg = RunConfig(horizon=4, train_window_days=2.0, gp_jobs=1)
    rows = sim.sweep_epsilon([1, 2], [0.2, 0.5], cfg=cfg,
                             make_scenario=sweep_scenario)
    assert len(banks) == 2
    assert [(m.seed, m.epsilon) for m in rows] == \
        [(1, 0.2), (1, 0.5), (2, 0.2), (2, 0.5)]
    for m in rows:
        bank = banks[[1, 2].index(m.seed)]
        ref = run_simulation(sweep_scenario(m.seed),
                             RunConfig(horizon=4, train_window_days=2.0,
                                       epsilon=m.epsilon),
                             bank=bank)
        same_run(m, ref)


def test_sweep_rows_do_not_depend_on_its_processes():
    # gp_jobs 2 runs the two seeds on two processes with in-process banks;
    # gp_jobs 4 lets each of them train its bank on two more.
    runs = [sim.sweep_epsilon([1, 2], [0.2, 0.5], make_scenario=sweep_scenario,
                              cfg=RunConfig(horizon=4, train_window_days=2.0, gp_jobs=jobs))
            for jobs in (1, 2, 4)]
    serial = runs[0]
    for split in runs[1:]:
        assert [(m.seed, m.epsilon) for m in split] == [(m.seed, m.epsilon) for m in serial]
        for a, b in zip(serial, split):
            same_run(a, b)


def test_sweep_starts_at_most_one_process_per_seed(monkeypatch):
    # A stand-in pool records its size and runs nothing in parallel; each
    # stand-in seed reports the bank processes it was given.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(sim, "_sweep_worker", lambda job: [(job[0], job[2].gp_jobs)])

    def sweep(seeds, gp_jobs):
        return sim.sweep_epsilon(seeds, [0.5], cfg=RunConfig(gp_jobs=gp_jobs))

    assert sweep([1, 2, 3], 4) == [(1, 1), (2, 1), (3, 1)]
    assert sizes == [3]
    assert sweep([1, 2], 4) == [(1, 2), (2, 2)]
    assert sizes == [3, 2]
    assert sweep([1, 2], 3) == [(1, 1), (2, 1)]
    assert sizes == [3, 2, 2]
    # One process, or one seed: the seeds run here, the bank on all of them.
    assert sweep([1, 2], 1) == [(1, 1), (2, 1)]
    assert sweep([1], 4) == [(1, 4)]
    assert sizes == [3, 2, 2]


# --- benchmark workload ---------------------------------------------------------


def test_benchmark_city_shape():
    net = benchmark_network()
    assert net.n_stations == 10
    assert net.step_seconds == 900.0
    assert net.speed_mps == 10.0
    spread = net.centroids.max(axis=0) - net.centroids.min(axis=0)
    assert spread == pytest.approx([10_000.0, 10_000.0])

    flows = benchmark_flows()
    per_day = sum(f.expected_trips(0.0, 86_400.0, 0.0) for f in flows)
    assert per_day == pytest.approx(220 * 3 + 220 * 3 + 70 * 24)


def test_benchmark_scenario_window():
    sc = benchmark_scenario(7, history_days=2.0, sim_days=0.5)
    assert sc.fleet_size == 300
    assert sc.sim_end - sc.sim_start == pytest.approx(43_200.0)
    hist = sc.trips.window(sc.trips.times[0], sc.sim_start)
    live = sc.trips.window(sc.sim_start, sc.sim_end)
    assert len(hist) > 0 and len(live) > 0
    assert len(hist) + len(live) == len(sc.trips)


@pytest.mark.parametrize("controller", ["gbm", "fixed"])
def test_snapshots_and_metrics_are_frozen_copies(controller):
    # Each snapshot must keep the values of its own tick: a snapshot that
    # aliased the live ledger or counts would read the end of the run.
    sc = conservation_scenario()
    run = _Run(sc, RunConfig(controller=controller, horizon=4, train_window_days=1.0))
    seen = []

    def keep(s):
        seen.append((s, copy.deepcopy(s.vehicle_m), copy.deepcopy(s.status_counts)))

    m = run.execute(on_tick=keep)
    assert len(seen) == 721
    for s, vehicle_m, status_counts in seen:
        assert np.array_equal(s.vehicle_m, vehicle_m)
        assert np.array_equal(s.status_counts, status_counts)
    assert not np.array_equal(seen[0][1], seen[-1][1])
    assert isinstance(m.vehicle_m, np.ndarray)
    assert m.vehicle_m.shape == (sc.fleet_size, 3)
    assert m.vehicle_m.dtype == np.float64
    assert np.array_equal(m.vehicle_m, seen[-1][1])
    # The run no longer holds the metrics' ledger or the last snapshot's.
    run.vehicle_m[0] += 1.0
    assert np.array_equal(m.vehicle_m, seen[-1][1])
    assert np.array_equal(seen[-1][0].vehicle_m, seen[-1][1])


@pytest.mark.parametrize("controller", ["gbm", "fixed"])
def test_status_counts_track_request_statuses(controller):
    # The snapshot's counts, read off the run's state, match a recount of
    # every request's status.
    sc = conservation_scenario()
    run = _Run(sc, RunConfig(controller=controller, horizon=4, train_window_days=1.0))
    seen = []

    def check(s):
        assert np.array_equal(s.status_counts, np.bincount(run.req_status, minlength=5))
        seen.append(s.status_counts)

    run.execute(on_tick=check)
    assert len(seen) == 721
    assert seen[-1][4] > 0 and seen[0][0] > 0
