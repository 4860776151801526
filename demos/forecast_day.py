"""Train the demand forecaster on five synthetic days, then watch it
predict the sixth.

The benchmark city has two commute flows (morning into the core,
evening back out) over a uniform background. The forecaster never sees
the sixth day; the table below lines its per-interval predictions up
against what the generator actually produced.

Run:  python demos/forecast_day.py [--seed N]
"""

import argparse
import time

import numpy as np

from amodcc.demand import DAY
from amodcc.forecast import train_bank
from amodcc.sim import DemandGrid, benchmark_scenario

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=7)
args = parser.parse_args()

sc = benchmark_scenario(args.seed)
net = sc.network
window_days = 5
t0 = time.time()

grid = DemandGrid(sc.trips, net, sc.sim_start - window_days * DAY,
                  net.step_seconds, 480 + 96)
hist = grid.counts[:, :, :480]
bank = train_bank(hist, grid.midpoint_hours(sc.sim_start)[:480],
                  net.step_seconds, series_origin=sc.sim_start,
                  window=(sc.sim_start - window_days * DAY, sc.sim_start),
                  trained_at=sc.sim_start)
print(f"trained {net.n_stations ** 2} flow models on "
      f"{int(hist.sum())} historical trips in {time.time() - t0:.0f}s\n")

# The strongest flow is one of the two commutes; find it by history volume.
totals = hist.sum(axis=2)
i, j = np.unravel_index(int(np.argmax(totals)), totals.shape)
print(f"busiest flow: station {i} -> station {j} "
      f"({int(totals[i, j])} trips over five days)")

live = grid.counts[i, j, 480:]
hours = grid.midpoint_hours(sc.sim_start)[480:]
mean, std = bank.models[i][j].predict(hours)

print("\n hour   predicted    realized   (one row per hour, day six)")
for h in range(24):
    sel = slice(4 * h, 4 * h + 4)
    mu = float(mean[sel].sum())
    sd = float(np.sqrt((std[sel] ** 2).sum()))
    got = int(live[sel].sum())
    bar = "#" * int(round(mu / 2))
    print(f"  {h:02d}    {mu:6.1f} +-{sd:4.1f}   {got:5d}   {bar}")

err = mean - live
print(f"\nper-interval RMS error on the unseen day: "
      f"{float(np.sqrt(np.mean(err ** 2))):.2f} trips")
print("the envelope should hug the commute peak, not flatten it")
