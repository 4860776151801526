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

from amodcc.sim import benchmark_scenario, history_bank, history_grid

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=7)
args = parser.parse_args()

sc = benchmark_scenario(args.seed)
net = sc.network
t0 = time.time()

history = history_grid(sc.trips, net, sc.sim_start, 5)
bank = history_bank(history, sc.sim_start)
fitted = sum(m.gp is not None for row in bank.models for m in row)
print(f"fitted {fitted} of {net.n_stations * (net.n_stations - 1)} station-to-station flows "
      f"on {int(history.counts.sum())} historical trips in {time.time() - t0:.0f}s\n")

# The strongest flow is one of the two commutes; find it by history volume.
totals = history.counts.sum(axis=2)
i, j = np.unravel_index(int(np.argmax(totals)), totals.shape)
print(f"busiest flow: station {i} -> station {j} "
      f"({int(totals[i, j])} trips over five days)")

day = history_grid(sc.trips, net, sc.sim_end, 1)
live = day.counts[i, j]
hours = day.midpoint_hours(sc.sim_start)
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
