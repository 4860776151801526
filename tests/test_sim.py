"""Simulation loop tests.

Micro-scenarios with station-centered requests make waits and distances
exactly predictable, so the loop's bookkeeping can be checked to the
last meter; the conservation sweep then exercises every controller on a
synthetic workload with per-tick invariant assertions.
"""

import copy

import numpy as np
import pytest

from amodcc import sim
from amodcc.demand import DemandFlow, TripTable, synth_demand
from amodcc.errors import InvalidInputError
from amodcc.forecast import forecast_demand, train_bank
from amodcc.mpc import quantile_demand
from amodcc.network import StationNetwork
from amodcc.sim import (DemandGrid, RunConfig, Scenario, _Run, benchmark_flows,
                        benchmark_network, benchmark_scenario,
                        initial_placement, run_simulation)


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
])
def test_runs_plan_from_one_table_per_bank(mpc_seconds, gp_seconds, banks, monkeypatch):
    # The run forecasts once per bank, over every instant that bank plans.
    # At each instant the table's columns equal that instant's own
    # per-flow queries to 1e-12, and the demand it plans on is the very
    # quantile demand of those queries.
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
    at = {}
    for bank, t0, fc in tables:
        for t, row in zip(t0, fc.slots):
            at[t] = (bank, fc.mean[:, :, row], fc.std[:, :, row])
    n = sc.network.n_stations
    for k, bank, demand in planned:
        now = sc.sim_start + k * cfg.dispatch_seconds
        table_bank, mean, std = at[now]
        assert table_bank is bank
        q = (now - bank.series_origin + (np.arange(cfg.horizon + 1) - 0.5) * dt) / 3600.0
        ref_mean = np.zeros((n, n, cfg.horizon + 1))
        ref_std = np.zeros((n, n, cfg.horizon + 1))
        for i in range(n):
            for j in range(n):
                ref_mean[i, j], ref_std[i, j] = bank.models[i][j].predict(q)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12
        assert np.max(np.abs(std - ref_std)) <= 1e-12
        assert np.array_equal(demand, quantile_demand(ref_mean, ref_std, cfg.epsilon))


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
    cfg = RunConfig(horizon=4, train_window_days=2.0)
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


def test_sweep_rows_do_not_depend_on_its_processes(monkeypatch):
    cfg = RunConfig(horizon=4, train_window_days=2.0, gp_jobs=2)
    serial = sim.sweep_epsilon([1, 2], [0.2, 0.5], cfg=cfg, make_scenario=sweep_scenario)

    def in_process(*args, n_jobs, **kwargs):
        # The forked seed workers inherit this patch: with the seeds on
        # two processes, no seed may fan its bank out again.
        assert n_jobs == 1
        return train_bank(*args, n_jobs=n_jobs, **kwargs)

    monkeypatch.setattr(sim, "train_bank", in_process)
    split = sim.sweep_epsilon([1, 2], [0.2, 0.5], cfg=cfg, make_scenario=sweep_scenario,
                              n_jobs=2)
    assert [(m.seed, m.epsilon) for m in split] == [(m.seed, m.epsilon) for m in serial]
    for a, b in zip(serial, split):
        same_run(a, b)


def test_sweep_starts_at_most_one_process_per_seed(monkeypatch):
    # A stand-in pool records its size and runs nothing in parallel.
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
    monkeypatch.setattr(sim, "_sweep_worker", lambda job: [job[0]])
    assert sim.sweep_epsilon([1, 2], [0.5], n_jobs=3) == [1, 2]
    assert sizes == [2]
    assert sim.sweep_epsilon([1], [0.5], n_jobs=3) == [1]   # one seed: in-process
    assert sizes == [2]
    with pytest.raises(InvalidInputError, match="n_jobs must be >= 1"):
        sim.sweep_epsilon([1, 2], [0.5], n_jobs=0)


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
    # The snapshot's counts are kept at each status write, not recounted.
    sc = conservation_scenario()
    run = _Run(sc, RunConfig(controller=controller, horizon=4, train_window_days=1.0))
    seen = []

    def check(s):
        assert np.array_equal(s.status_counts, np.bincount(run.req_status, minlength=5))
        seen.append(s.status_counts)

    run.execute(on_tick=check)
    assert len(seen) == 721
    assert seen[-1][4] > 0 and seen[0][0] > 0
