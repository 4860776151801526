"""Golden closed-loop runs: short seed-0 metrics CSVs, byte for byte.

The 6-hour file runs ``ccmpc``, ``fixed`` and ``gbm`` periods on the
benchmark city.  Its bank is the pinned seed-0 3-day bank
(``data/bank_seed0_3day.txt``), rebuilt against its own history, so
nothing here trains.  The ``ccmpc`` period is the one the ``ccmpc-day``
benchmark runs; 16 of its 24 instants are certified without the solver
(``nodes == 0``), and that count is pinned as well.  Every plan of that
period must also come out of a one-shot ``solve_rebalance``, which starts
its root LP cold where the run starts it warm.  The week file runs
seven live days of ``gbm`` after a 5-day history (20,610 requests,
11,252 matchings), the tick loop that the ``gbm-week`` benchmark times.
A change that leaves plans and matchings alone leaves both files alone.
A change that moves them must explain the move and re-record both files
by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from amodcc.forecast import load_bank
from amodcc.mpc import RebalanceProgram, solve_rebalance
from amodcc.report import write_metrics_csv
from amodcc.sim import DemandGrid, RunConfig, benchmark_scenario, run_simulation

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_seed0_6h.csv"
GOLDEN_WEEK = DATA / "golden_seed0_gbm_week.csv"
HISTORY_DAYS = 3.0


def golden_inputs():
    """The 6-hour scenario and its pinned bank, rebuilt on its own history."""
    sc = benchmark_scenario(0, history_days=HISTORY_DAYS, sim_days=0.25)
    dt = sc.network.step_seconds
    start = sc.sim_start - HISTORY_DAYS * 86_400.0
    grid = DemandGrid(sc.trips, sc.network, start, dt,
                      int(round(HISTORY_DAYS * 86_400.0 / dt)))
    bank = load_bank(str(DATA / "bank_seed0_3day.txt"), grid.counts,
                     grid.midpoint_hours(sc.sim_start))
    return sc, bank


def record_period():
    """The ``ccmpc`` period's metrics and, for every control instant, the
    program, the fleet state, waiting requests and demand it was solved
    for, and the plan the run got."""
    sc, bank = golden_inputs()
    instants = []
    solve = RebalanceProgram.solve

    def recording(program, state, outstanding, demand, cfg=None):
        plan = solve(program, state, outstanding, demand, cfg)
        instants.append((program, state, outstanding, demand, plan))
        return plan

    RebalanceProgram.solve = recording
    try:
        m = run_simulation(sc, RunConfig(controller="ccmpc", train_window_days=HISTORY_DAYS),
                           bank=bank)
    finally:
        RebalanceProgram.solve = solve
    m.seed = 0
    return m, instants


def golden_rows(ccmpc=None):
    sc, _ = golden_inputs()
    rows = [ccmpc or record_period()[0]]
    for controller in ("fixed", "gbm"):
        m = run_simulation(sc, RunConfig(controller=controller, train_window_days=HISTORY_DAYS))
        m.seed = 0
        rows.append(m)
    return rows


def golden_week_rows():
    sc = benchmark_scenario(0, history_days=5.0, sim_days=7.0)
    m = run_simulation(sc, RunConfig(controller="gbm", train_window_days=5.0))
    m.seed = 0
    return [m]


@pytest.fixture(scope="module")
def period_rows(seed0_period):
    return golden_rows(ccmpc=seed0_period[0])


def test_seed0_period_matches_the_recorded_csv(tmp_path, period_rows):
    out = tmp_path / "metrics.csv"
    write_metrics_csv(str(out), period_rows)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_seed0_ccmpc_period_certifies_two_thirds_of_its_instants(period_rows):
    # 16 of the 24 instants have a feasible zero-cost plan, which the
    # default weights make the unique optimum: they skip the solver and
    # report 0 nodes.  A wrong strictness rule in build_problem turns the
    # certificate off without moving the CSV.
    nodes = period_rows[0].solver_nodes
    assert len(nodes) == 24
    assert nodes.count(0) == 16
    # Certified instants run no simplex iteration; solved ones report
    # theirs (a warm start can already sit at the canonical vertex).
    iterations = period_rows[0].solver_iterations
    assert len(iterations) == 24 and sum(iterations) > 0
    assert all(i == 0 for i, n in zip(iterations, nodes) if n == 0)


def test_in_run_plans_equal_one_shot_solves(seed0_period):
    # The run warm-starts each root LP from the last instant's basis; a
    # one-shot solve_rebalance builds its own program and starts cold.
    # Ties among optima are broken by the canonical rule, so every plan,
    # certified or solved, comes out the same either way.
    _, instants = seed0_period
    assert len(instants) == 24
    for program, state, outstanding, demand, plan in instants:
        again = solve_rebalance(program.network, state, outstanding, demand)
        for name in ("rebalance", "customer", "backlog", "pickup"):
            assert np.array_equal(getattr(again, name), getattr(plan, name)), name
        assert (again.objective, again.nodes) == (plan.objective, plan.nodes)


def test_seed0_gbm_week_matches_the_recorded_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    write_metrics_csv(str(out), golden_week_rows())
    assert out.read_bytes() == GOLDEN_WEEK.read_bytes()


if __name__ == "__main__":
    for path, rows in ((GOLDEN, golden_rows), (GOLDEN_WEEK, golden_week_rows)):
        write_metrics_csv(str(path), rows())
        sys.stdout.write(path.read_text())
