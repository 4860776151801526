"""Golden closed-loop runs: short seed-0 metrics CSVs, byte for byte.

The 6-hour file runs ``ccmpc``, ``fixed`` and ``gbm`` periods on the
benchmark city.  Its bank is the pinned seed-0 3-day bank
(``data/bank_seed0_3day.txt``), rebuilt against its own history, so
nothing here trains.  The week file runs seven live days of ``gbm``
after a 5-day history (20,610 requests, 11,252 matchings), the tick
loop that the ``gbm-week`` benchmark times.  A change that leaves plans
and matchings alone leaves both files alone.  A change that moves them
must explain the move and re-record both files by running this module
as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

from amodcc.forecast import load_bank
from amodcc.report import write_metrics_csv
from amodcc.sim import DemandGrid, RunConfig, benchmark_scenario, run_simulation

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_seed0_6h.csv"
GOLDEN_WEEK = DATA / "golden_seed0_gbm_week.csv"
HISTORY_DAYS = 3.0


def golden_rows():
    sc = benchmark_scenario(0, history_days=HISTORY_DAYS, sim_days=0.25)
    dt = sc.network.step_seconds
    start = sc.sim_start - HISTORY_DAYS * 86_400.0
    grid = DemandGrid(sc.trips, sc.network, start, dt,
                      int(round(HISTORY_DAYS * 86_400.0 / dt)))
    bank = load_bank(str(DATA / "bank_seed0_3day.txt"), grid.counts,
                     grid.midpoint_hours(sc.sim_start))
    rows = []
    for controller in ("ccmpc", "fixed", "gbm"):
        cfg = RunConfig(controller=controller, train_window_days=HISTORY_DAYS)
        m = run_simulation(sc, cfg, bank=bank if controller == "ccmpc" else None)
        m.seed = 0
        rows.append(m)
    return rows


def golden_week_rows():
    sc = benchmark_scenario(0, history_days=5.0, sim_days=7.0)
    m = run_simulation(sc, RunConfig(controller="gbm", train_window_days=5.0))
    m.seed = 0
    return [m]


def test_seed0_period_matches_the_recorded_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    write_metrics_csv(str(out), golden_rows())
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_seed0_gbm_week_matches_the_recorded_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    write_metrics_csv(str(out), golden_week_rows())
    assert out.read_bytes() == GOLDEN_WEEK.read_bytes()


if __name__ == "__main__":
    for path, rows in ((GOLDEN, golden_rows), (GOLDEN_WEEK, golden_week_rows)):
        write_metrics_csv(str(path), rows())
        sys.stdout.write(path.read_text())
