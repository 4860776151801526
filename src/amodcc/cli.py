"""Command-line entry point.

Subcommands cover the full pipeline: ``partition`` builds a station
network from trips, ``train`` fits and saves a forecast bank,
``simulate`` runs one controller over a scenario, ``sweep`` scans the
risk level, and ``report`` re-renders saved metrics.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines
(long option names, dashes or underscores); explicit flags win over the
file.  Exit codes: 0 success, 2 invalid input, 3 solver or numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from .demand import ingest_trips
from .errors import InvalidInputError, NumericalError, SolverError, read_lines
from .forecast import bank_train_config, load_bank, save_bank
from .ilp import SolverConfig
from .network import StationNetwork, kmeans_partition, load_network, save_network
from .report import (
    format_table,
    load_metrics_json,
    save_metrics_json,
    write_metrics_csv,
    write_timing_csv,
)
from .sim import (
    CONTROLLERS,
    RunConfig,
    Scenario,
    benchmark_scenario,
    history_bank,
    history_grid,
    run_simulation,
    sweep_epsilon,
)

_RUN = RunConfig()      # the defaults every run option reads


def _read_config(path: str, options: dict[str, argparse.Action]) -> list[str]:
    """Turn a config file into CLI tokens, inserted ahead of real flags.

    A value is parsed as its option's argparse type in ``options``, a
    float must be finite and an option with choices must get one of
    them, so a bad value names its line; a path is not checked, and
    argparse refuses an unknown key.
    """
    tokens: list[str] = []

    def setting(lineno: int, line: str) -> None:
        key, eq, value = line.partition("=")
        key = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if not eq or key == "--" or not value:
            raise ValueError("expected 'key = value'")
        action = options.get(key)
        parsed = value
        if action is not None and action.type is not None:
            try:
                parsed = action.type(value)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(exc) from exc
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (parsed if isinstance(parsed, list) else [parsed])):
                raise ValueError(f"{key} must be finite, got {value}")
        if action is not None and action.choices is not None and parsed not in action.choices:
            raise ValueError(f"{key} must be one of {', '.join(map(str, action.choices))}, "
                             f"got {value}")
        tokens.extend([key, value])

    read_lines(path, setting)
    return tokens


def _extract_config(argv: list[str]) -> tuple[list[str], list[str]]:
    paths: list[str] = []
    rest: list[str] = []
    args = iter(argv)
    for arg in args:
        if arg == "--config":
            path = next(args, None)
            if path is None:
                raise InvalidInputError("--config needs a file path")
            paths.append(path)
        elif arg.startswith("--config="):
            paths.append(arg.split("=", 1)[1])
        else:
            rest.append(arg)
    return paths, rest


def _comma_list(cast):
    def parse(text: str):
        try:
            return [cast(part) for part in text.split(",") if part != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _add_gp_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gp-jobs", type=int, default=_RUN.gp_jobs,
                   help="worker processes that train the forecast bank "
                        "(default: the usable cores, here %(default)s); "
                        "1 trains in-process; the bank does not depend on it; "
                        "a sweep splits them between its seeds and their banks")


def _add_window_days(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-days", type=float, default=_RUN.train_window_days,
                   help="training window length in days, a whole number of model steps")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The options of every run but its controller and risk level."""
    p.add_argument("--horizon", type=int, default=_RUN.horizon)
    p.add_argument("--dispatch-seconds", type=float, default=_RUN.dispatch_seconds)
    p.add_argument("--mpc-seconds", type=float, default=_RUN.mpc_seconds,
                   help="controller cadence (default: one model step)")
    p.add_argument("--gp-seconds", type=float, default=_RUN.gp_seconds,
                   help="forecast retraining cadence")
    _add_window_days(p)
    p.add_argument("--backlog-cost", type=float, default=_RUN.backlog_cost)
    p.add_argument("--pickup-slope", type=float, default=_RUN.pickup_delay_slope)
    p.add_argument("--time-limit", type=float, default=_RUN.solver.time_limit_s,
                   help="safety stop per MILP solve; reaching it fails the "
                        "run with exit code 3")
    p.add_argument("--gp-max-iters", type=int, default=None)
    _add_gp_jobs(p)


def _gp_train_config(args):
    """The bank's training defaults, with ``--gp-max-iters`` if given."""
    if args.gp_max_iters is None:
        return None
    return dataclasses.replace(bank_train_config(), max_iters=args.gp_max_iters)


def _run_config(args, **fields) -> RunConfig:
    """The run the shared options describe; ``fields`` sets the rest."""
    return RunConfig(
        horizon=args.horizon,
        dispatch_seconds=args.dispatch_seconds,
        mpc_seconds=args.mpc_seconds,
        gp_seconds=args.gp_seconds,
        train_window_days=args.window_days,
        backlog_cost=args.backlog_cost,
        pickup_delay_slope=args.pickup_slope,
        solver=SolverConfig(time_limit_s=args.time_limit),
        gp_train=_gp_train_config(args),
        gp_jobs=args.gp_jobs,
        **fields,
    )


def _write_outputs(args, rows) -> None:
    if args.metrics_out:
        save_metrics_json(args.metrics_out, rows)
    if args.csv_out:
        write_metrics_csv(args.csv_out, rows)
    if args.timing_out:
        write_timing_csv(args.timing_out, rows)
    print(format_table(rows))


def cmd_partition(args) -> int:
    table = ingest_trips(args.trips, args.trips_format)
    centroids, labels = kmeans_partition(table.all_points, args.stations,
                                         seed=args.seed)
    net = StationNetwork.from_centroids(centroids, speed_mps=args.speed_mps,
                                        step_seconds=args.step_seconds)
    net.projection = table.projection
    save_network(args.out, net)
    sizes = np.bincount(labels, minlength=args.stations)
    print(f"partitioned {len(table)} trips ({2 * len(table)} points) "
          f"into {args.stations} stations")
    print(f"station point counts: {sizes.tolist()}")
    print(f"network written to {args.out}")
    return 0


def cmd_train(args) -> int:
    net = load_network(args.network)
    table = ingest_trips(args.trips, args.trips_format, ref=net.projection)
    dt = net.step_seconds
    end = args.train_end
    if end is None:
        end = float(np.floor(table.times[-1] / dt) * dt)
    grid = history_grid(table, net, end, args.window_days)
    if grid.counts.sum() == 0:
        raise InvalidInputError(
            f"no trips fall inside the training window [{grid.origin}, {end})")
    bank = history_bank(grid, end, _gp_train_config(args), args.gp_jobs)
    save_bank(args.out, bank)
    pairs = bank.n_stations * (bank.n_stations - 1)
    kept = [m for row in bank.models for m in row if m.gp is not None]
    print(f"fitted {len(kept)} of {pairs} station-to-station flows ({pairs - len(kept)} "
          f"constant) on {int(grid.counts.sum())} trips over {args.window_days} days")
    print(f"{sum(m.gp.converged for m in kept)} of {len(kept)} kept fits converged; "
          f"the wide start won on {sum(m.start == 'wide' for m in kept)} flows")
    print(f"bank written to {args.out}")
    return 0


def _build_scenario(args) -> Scenario:
    if args.benchmark is not None:
        return benchmark_scenario(args.benchmark, fleet_size=args.fleet)
    missing = [name for name, v in (("--network", args.network),
                                    ("--trips", args.trips),
                                    ("--start", args.start),
                                    ("--end", args.end))
               if v is None]
    if missing:
        raise InvalidInputError(
            "either pass --benchmark SEED or all of " + ", ".join(missing))
    net = load_network(args.network)
    table = ingest_trips(args.trips, args.trips_format, ref=net.projection)
    return Scenario(network=net, trips=table, sim_start=args.start,
                    sim_end=args.end, fleet_size=args.fleet)


def cmd_simulate(args) -> int:
    scenario = _build_scenario(args)
    bank = None
    if args.bank:
        # The bank file stores hyperparameters only; rebuild its posteriors
        # from the same history window the run would train on.
        grid = history_grid(scenario.trips, scenario.network, scenario.sim_start,
                            args.window_days)
        bank = load_bank(args.bank, grid.counts,
                         grid.midpoint_hours(scenario.sim_start))
    cfg = _run_config(args, controller=args.controller, epsilon=args.epsilon)
    metrics = run_simulation(scenario, cfg, bank=bank)
    if args.benchmark is not None:
        metrics.seed = args.benchmark
    _write_outputs(args, [metrics])
    return 0


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    make = functools.partial(benchmark_scenario, fleet_size=args.fleet)
    rows = sweep_epsilon(args.seeds, args.epsilons, cfg=cfg, make_scenario=make)
    _write_outputs(args, rows)
    return 0


def cmd_report(args) -> int:
    rows = load_metrics_json(args.metrics)
    if args.csv_out:
        write_metrics_csv(args.csv_out, rows)
    if args.timing_out:
        write_timing_csv(args.timing_out, rows)
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amodcc",
        description="Station-based fleet rebalancing: partition, forecast, "
                    "optimize, simulate.",
        epilog="Every subcommand also takes --config FILE with 'key = value' lines "
               "(long option names); explicit flags win over the file.  Every plan "
               "is verified before a run applies it.  Exit codes: 0 success, "
               "2 invalid input, 3 solver or numerical failure, 4 I/O failure.")
    # No option may be abbreviated: ``sweep --epsilon`` must not pass for
    # ``--epsilons``.
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("partition", help="cluster trip endpoints into stations")
    p.add_argument("--trips", required=True)
    p.add_argument("--trips-format", default="generic",
                   choices=("generic", "cabtrace"))
    p.add_argument("--stations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speed-mps", type=float, default=10.0)
    p.add_argument("--step-seconds", type=float, default=900.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="fit per-flow demand forecasts")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--trips-format", default="generic",
                   choices=("generic", "cabtrace"))
    p.add_argument("--train-end", type=float, default=None,
                   help="window end, epoch seconds (default: last whole step)")
    _add_window_days(p)
    p.add_argument("--gp-max-iters", type=int, default=None)
    _add_gp_jobs(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run one controller over a scenario")
    p.add_argument("--benchmark", type=int, default=None, metavar="SEED",
                   help="use the built-in benchmark workload")
    p.add_argument("--network")
    p.add_argument("--trips")
    p.add_argument("--trips-format", default="generic",
                   choices=("generic", "cabtrace"))
    p.add_argument("--start", type=float, help="sim start, epoch seconds")
    p.add_argument("--end", type=float, help="sim end, epoch seconds")
    p.add_argument("--fleet", type=int, default=300)
    p.add_argument("--bank", help="forecast bank file (plain text) from `train`; "
                   "without it ccmpc trains in-run")
    p.add_argument("--controller", default=_RUN.controller, choices=CONTROLLERS)
    p.add_argument("--epsilon", type=float, default=_RUN.epsilon,
                   help="chance-constraint risk level in (0, 1)")
    _add_run_options(p)
    p.add_argument("--metrics-out", help="write full metrics JSON here")
    p.add_argument("--csv-out", help="write the deterministic metrics CSV here")
    p.add_argument("--timing-out", help="write solver timing CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="scan the risk level on the benchmark")
    p.add_argument("--seeds", type=_comma_list(int), default=[0],
                   help="comma-separated workload seeds")
    p.add_argument("--epsilons", type=_comma_list(float),
                   default=[0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
    p.add_argument("--fleet", type=int, default=300)
    _add_run_options(p)
    p.add_argument("--metrics-out")
    p.add_argument("--csv-out")
    p.add_argument("--timing-out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-render saved metrics")
    p.add_argument("--metrics", required=True, help="metrics JSON from simulate/sweep")
    p.add_argument("--csv-out")
    p.add_argument("--timing-out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        paths, argv = _extract_config(argv)
        parser = build_parser()
        if paths:
            if not argv or argv[0].startswith("-"):
                raise InvalidInputError("--config requires a subcommand")
            # argparse has no public lookup of a subcommand's options.
            command = parser._subparsers._group_actions[0].choices.get(argv[0])
            options = command._option_string_actions if command else {}
            argv[1:1] = [tok for path in paths for tok in _read_config(path, options)]
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NumericalError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
