"""Plan replay: every control instant of the seed-0 ``oracle`` day, in order.

``data/oracle_seed0_day.npz`` holds the 96 control instants of a full
seed-0 ``oracle`` day on the benchmark city (5-day history, default
settings): each instant's idle vehicles, in-transit arrivals per horizon
step, waiting requests and demand, and the plan the run got, with its
objective and node count.  79 of them reach the solver and none goes to
the MILP.  The test solves them in run order through one program, so
each root LP starts warm from the instant before, as in a run, and every
plan must come out as recorded.  A change to the rows, the solver or the
tie rule that moves any plan shows here, on daytime instants the 6-hour
golden period never reaches.

The file is recorded by running this module as a script:

    PYTHONPATH=src python tests/test_replay.py
"""

from pathlib import Path

import numpy as np
import pytest

from amodcc.mpc import CostWeights, RebalanceProgram, build_problem
from amodcc.network import FleetState
from amodcc.sim import RunConfig, benchmark_network, benchmark_scenario, run_simulation

REPLAY = Path(__file__).parent / "data" / "oracle_seed0_day.npz"
HORIZON = RunConfig().horizon


def record_day() -> dict:
    """Every control instant of the seed-0 ``oracle`` day, as arrays."""
    sc = benchmark_scenario(0)
    rec = []
    solve = RebalanceProgram.solve

    def recording(program, state, outstanding, demand, cfg=None):
        plan = solve(program, state, outstanding, demand, cfg)
        rec.append((state, outstanding, demand, plan))
        return plan

    RebalanceProgram.solve = recording
    try:
        run_simulation(sc, RunConfig(controller="oracle"))
    finally:
        RebalanceProgram.solve = solve
    small = np.int16
    return dict(
        idle=np.array([s.idle for s, _, _, _ in rec], dtype=small),
        arrivals=np.array([s.arrival_counts(HORIZON) for s, _, _, _ in rec], dtype=small),
        outstanding=np.array([o for _, o, _, _ in rec], dtype=small),
        demand=np.array([d for _, _, d, _ in rec], dtype=small),
        plans=np.array([[p.rebalance, p.customer, p.backlog, p.pickup]
                        for _, _, _, p in rec], dtype=small),
        objective=np.array([p.objective for _, _, _, p in rec]),
        nodes=np.array([p.nodes for _, _, _, p in rec]))


def instant_state(idle: np.ndarray, arrivals: np.ndarray) -> FleetState:
    """A fleet state from idle counts and per-step arrival counts."""
    return FleetState(idle=idle.astype(int),
                      arrivals=[(int(i), int(k)) for i, k in zip(*np.nonzero(arrivals))
                                for _ in range(int(arrivals[i, k]))])


@pytest.fixture(scope="module")
def day():
    with np.load(REPLAY) as f:
        return {name: f[name] for name in f.files}


def test_the_recorded_day_has_its_instants(day):
    assert len(day["nodes"]) == 96
    assert np.count_nonzero(day["nodes"]) == 79
    assert set(day["nodes"].tolist()) == {0, 1}      # no instant reaches the MILP


def test_one_program_replays_every_plan_in_order(day):
    net = benchmark_network()
    program = build_problem(net, HORIZON, CostWeights.defaults(net, HORIZON))
    for k in range(len(day["nodes"])):
        state = instant_state(day["idle"][k], day["arrivals"][k])
        outstanding, demand = day["outstanding"][k].astype(int), day["demand"][k].astype(int)
        plan = program.solve(state, outstanding, demand)
        got = np.array([plan.rebalance, plan.customer, plan.backlog, plan.pickup])
        assert np.array_equal(got, day["plans"][k]), f"instant {k}"
        assert plan.nodes == day["nodes"][k], f"instant {k}"
        assert plan.objective == pytest.approx(day["objective"][k], rel=1e-12, abs=1e-9)
        plan.verify_against(net, state, outstanding, demand)


if __name__ == "__main__":
    np.savez_compressed(REPLAY, **record_day())
    with np.load(REPLAY) as f:
        print(REPLAY, {name: f[name].shape for name in f.files})
