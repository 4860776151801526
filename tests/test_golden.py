"""Golden closed-loop run: a short seed-0 metrics CSV, byte for byte.

The bank is the pinned seed-0 3-day bank (``data/bank_seed0_3day.txt``),
rebuilt against its own history, so nothing here trains.  6-hour
``ccmpc``, ``fixed`` and ``gbm`` periods run on the benchmark city, and
their metrics CSV must equal ``data/golden_seed0_6h.csv``.  A change
that leaves plans alone leaves this file alone.  A change that moves
plans must explain the move and re-record the file by running this
module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

from amodcc.forecast import load_bank
from amodcc.report import write_metrics_csv
from amodcc.sim import DemandGrid, RunConfig, benchmark_scenario, run_simulation

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_seed0_6h.csv"
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


def test_seed0_period_matches_the_recorded_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    write_metrics_csv(str(out), golden_rows())
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_metrics_csv(str(GOLDEN), golden_rows())
    sys.stdout.write(GOLDEN.read_text())
