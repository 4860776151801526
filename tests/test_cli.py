"""End-to-end command-line tests: pipeline round-trips and exit codes."""

import dataclasses
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amodcc
from amodcc import cli, sim
from amodcc.cli import main
from amodcc.forecast import bank_train_config
from amodcc.network import load_network
from amodcc.sim import CONTROLLERS, RunConfig


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(amodcc.__file__).resolve().parent.parent)


def write_trips(path, n=400, seed=3, t1=43_200.0):
    """Generic CSV around a small lon/lat box, times ascending."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, t1, size=n))
    lon = rng.uniform(-122.45, -122.35, size=(n, 2))
    lat = rng.uniform(37.70, 37.80, size=(n, 2))
    with open(path, "w") as fh:
        fh.write("time,o_lon,o_lat,d_lon,d_lat\n")
        for k in range(n):
            fh.write(f"{times[k]},{lon[k,0]},{lat[k,0]},{lon[k,1]},{lat[k,1]}\n")


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    trips = str(root / "trips.csv")
    net = str(root / "net.json")
    write_trips(trips)
    rc = main(["partition", "--trips", trips, "--stations", "3",
               "--seed", "0", "--step-seconds", "900", "--out", net])
    assert rc == 0
    return root, trips, net


def test_partition_writes_loadable_network(city, capsys):
    root, trips, net = city
    loaded = load_network(net)
    assert loaded.n_stations == 3
    assert loaded.step_seconds == 900.0
    assert loaded.projection is not None


def test_train_then_simulate_with_bank(city, capsys):
    root, trips, net = city
    bank_path = str(root / "bank.json")
    rc = main(["train", "--network", net, "--trips", trips,
               "--train-end", "21600", "--window-days", "0.25",
               "--gp-max-iters", "0", "--out", bank_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bank written" in out
    assert "kept fits converged; the wide start won on" in out
    assert "stations 3" in (root / "bank.json").read_text()

    rc = main(["simulate", "--network", net, "--trips", trips,
               "--start", "21600", "--end", "43200", "--fleet", "5",
               "--controller", "ccmpc", "--epsilon", "0.5", "--horizon", "4",
               "--window-days", "0.25", "--bank", bank_path,
               "--csv-out", str(root / "cc.csv")])
    assert rc == 0
    assert "ccmpc" in capsys.readouterr().out


def test_simulate_csv_is_reproducible(city, capsys):
    root, trips, net = city
    argv = ["simulate", "--network", net, "--trips", trips,
            "--start", "21600", "--end", "43200", "--fleet", "5",
            "--controller", "gbm",
            "--metrics-out", str(root / "m.json")]
    assert main(argv + ["--csv-out", str(root / "a.csv")]) == 0
    assert main(argv + ["--csv-out", str(root / "b.csv")]) == 0
    a = (root / "a.csv").read_bytes()
    assert a == (root / "b.csv").read_bytes()

    assert main(["report", "--metrics", str(root / "m.json"),
                 "--csv-out", str(root / "c.csv")]) == 0
    assert (root / "c.csv").read_bytes() == a
    table = capsys.readouterr().out
    assert "gbm" in table and "wait_mean" in table


def test_config_file_merges_under_flags(city, capsys, tmp_path):
    root, trips, net2 = city
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stations = 4\nstep_seconds = 600   # comment\n")
    out = str(tmp_path / "n4.json")
    rc = main(["partition", "--config", str(cfg), "--trips", trips,
               "--out", out])
    assert rc == 0
    loaded = load_network(out)
    assert loaded.n_stations == 4          # from the file
    assert loaded.step_seconds == 600.0

    out2 = str(tmp_path / "n2.json")
    rc = main(["partition", "--config", str(cfg), "--trips", trips,
               "--stations", "2", "--out", out2])
    assert rc == 0
    assert load_network(out2).n_stations == 2   # explicit flag wins
    capsys.readouterr()


def test_controller_choices_are_the_simulations():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    option = commands["simulate"]._option_string_actions["--controller"]
    assert tuple(option.choices) == CONTROLLERS


def test_bare_simulate_runs_the_default_config():
    # The run options read their defaults from RunConfig and SolverConfig.
    args = cli.build_parser().parse_args(["simulate", "--benchmark", "0"])
    cfg = cli._run_config(args, controller=args.controller, epsilon=args.epsilon)
    default = RunConfig()
    for f in dataclasses.fields(RunConfig):
        assert getattr(cfg, f.name) == getattr(default, f.name), f.name


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--controller", "fixed"],
                                    ["--epsilon", "0.2"]])
def test_sweep_has_no_options_it_would_ignore(option):
    # The sweep runs ccmpc at each of --epsilons on --gp-jobs processes;
    # "--epsilon" is not taken for an abbreviation of "--epsilons".
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seeds", "0", "--epsilons", "0.5"] + option)
    assert exc.value.code == 2


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("stations\n")
    rc = main(["partition", "--config", str(bad), "--trips", "x", "--out", "y"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err
    rc = main(["--config", str(bad)])
    assert rc == 2


def test_a_bad_number_in_a_config_file_names_its_line(city, tmp_path, capsys, monkeypatch):
    # A config value is parsed as its option's argparse type, and a float
    # must be finite, where the file is read: the error names the file and
    # the line (exit code 2).  Path options are not numbers.
    root, trips, net = city
    cfg = tmp_path / "run.cfg"
    for command, line, reason in (
            ("simulate", "backlog_cost = nan", "--backlog-cost must be finite, got nan"),
            ("simulate", "fleet = 1x", "invalid literal for int() with base 10: '1x'"),
            ("simulate", "epsilon = inf", "--epsilon must be finite, got inf"),
            ("sweep", "epsilons = 0.5,nan", "--epsilons must be finite, got 0.5,nan"),
            ("sweep", "seeds = 1,x", "invalid literal for int() with base 10: 'x'")):
        cfg.write_text(f"# a run\nhorizon = 4\n{line}\n")
        run = ["--benchmark", "0"] if command == "simulate" else []
        assert main([command, "--config", str(cfg), *run]) == 2, line
        assert f"error: {cfg}: malformed line 3: {line!r} ({reason})" \
            in capsys.readouterr().err, line
    monkeypatch.chdir(tmp_path)
    cfg.write_text("out = inf\nstations = 2\n")
    assert main(["partition", "--config", str(cfg), "--trips", trips]) == 0
    assert load_network(str(tmp_path / "inf")).n_stations == 2
    capsys.readouterr()


def test_exit_codes(city, tmp_path, capsys):
    root, trips, net = city
    # 2: invalid input
    assert main(["simulate", "--network", net, "--trips", trips]) == 2
    assert "either pass --benchmark" in capsys.readouterr().err
    assert main(["simulate", "--network", net, "--trips", trips,
                 "--start", "0", "--end", "100", "--fleet", "5",
                 "--epsilon", "1.5"]) == 2
    # fewer than one bank worker, for a run or for `train`
    assert main(["simulate", "--network", net, "--trips", trips,
                 "--start", "0", "--end", "100", "--fleet", "5",
                 "--gp-jobs", "0"]) == 2
    assert "gp_jobs must be >= 1" in capsys.readouterr().err
    assert main(["train", "--network", net, "--trips", trips,
                 "--train-end", "21600", "--window-days", "0.25", "--gp-jobs", "0",
                 "--out", str(tmp_path / "bank.txt")]) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err
    # a run setting that is not finite or out of its domain, whatever the
    # controller, and a training window that is not finite
    for option, value, message in (
            ("--dispatch-seconds", "nan", "dispatch_seconds must be finite, got nan"),
            ("--gp-seconds", "nan", "gp_seconds must be finite, got nan"),
            ("--gp-seconds", "inf", "gp_seconds must be finite, got inf"),
            ("--mpc-seconds", "nan", "mpc_seconds must be finite, got nan"),
            ("--mpc-seconds", "inf", "mpc_seconds must be finite, got inf"),
            ("--window-days", "nan", "train_window_days must be finite, got nan"),
            ("--window-days", "inf", "train_window_days must be finite, got inf"),
            ("--backlog-cost", "nan", "backlog_cost must be finite, got nan"),
            ("--backlog-cost", "0", "backlog_cost must be positive, got 0.0"),
            ("--pickup-slope", "nan", "pickup_delay_slope must be finite, got nan"),
            ("--pickup-slope", "-1", "pickup_delay_slope must be >= 0, got -1.0"),
            ("--time-limit", "nan", "time_limit_s must be finite and positive, got nan"),
            ("--time-limit", "0", "time_limit_s must be finite and positive, got 0.0")):
        assert main(["simulate", "--benchmark", "0", "--controller", "gbm", option, value]) == 2
        assert message in capsys.readouterr().err
    assert main(["train", "--network", net, "--trips", trips, "--train-end", "21600",
                 "--window-days", "nan", "--out", str(tmp_path / "bank.txt")]) == 2
    assert "training window (nan s)" in capsys.readouterr().err
    # a non-finite trip field (the message names its line) or network speed
    lines = Path(trips).read_text().splitlines()
    lines[5] = ",".join(["nan" if k == 1 else v for k, v in enumerate(lines[5].split(","))])
    bad_trips = tmp_path / "trips.csv"
    bad_trips.write_text("\n".join(lines) + "\n")
    assert main(["partition", "--trips", str(bad_trips), "--out", str(tmp_path / "n.txt")]) == 2
    assert f"{bad_trips}: malformed line 6: {lines[5]!r} (non-finite field)" \
        in capsys.readouterr().err
    bad_net = tmp_path / "net.txt"
    bad_net.write_text(Path(net).read_text().replace("speed_mps 10.0", "speed_mps inf"))
    assert main(["simulate", "--network", str(bad_net), "--trips", trips, "--start", "21600",
                 "--end", "43200", "--fleet", "5", "--controller", "gbm"]) == 2
    assert "speed_mps must be finite and positive, got inf" in capsys.readouterr().err
    # 4: I/O failure
    assert main(["report", "--metrics", str(tmp_path / "missing.json")]) == 4
    assert main(["partition", "--trips", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "n.json")]) == 4
    # argparse rejects malformed option values itself
    with pytest.raises(SystemExit):
        main(["sweep", "--seeds", "1,x"])
    # the solver has one engine and no gap option, on the command line
    # or in a config file
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--benchmark", "0", "--engine", "bland"])
    assert exc.value.code == 2
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("engine = highs\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--benchmark", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["trips", "cabtrace", "network", "bank", "config"])
def test_a_line_that_is_not_utf8_exits_2(kind, city, tmp_path, capsys):
    # Every text input goes through one line reader, which decodes each
    # line where it reports bad lines: a Latin-1 byte in a comment on line
    # 2 is invalid input (exit code 2) that names the file and the line.
    root, trips, net = city
    good = tmp_path / "good.txt"
    if kind == "bank":
        assert main(["train", "--network", net, "--trips", trips, "--train-end", "21600",
                     "--window-days", "0.25", "--gp-max-iters", "0", "--out", str(good)]) == 0
    else:
        good.write_bytes({"trips": Path(trips).read_bytes(),
                          "cabtrace": b"37.70 -122.40 0 100\n37.71 -122.41 1 160\n"
                                      b"37.72 -122.42 0 220\n",
                          "network": Path(net).read_bytes(),
                          "config": b"stations = 4\nstep_seconds = 600\n"}[kind])
    lines = good.read_bytes().splitlines()
    lines[1] += " # caf\xe9".encode("latin-1")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    out = ["--out", str(tmp_path / "n.txt")]
    run = ["--trips", trips, "--start", "21600", "--end", "43200", "--fleet", "5"]
    argv = {"trips": ["partition", "--trips", str(bad)] + out,
            "cabtrace": ["partition", "--trips", str(bad), "--trips-format", "cabtrace"] + out,
            "network": ["simulate", "--network", str(bad), *run, "--controller", "gbm"],
            "bank": ["simulate", "--network", net, *run, "--window-days", "0.25",
                     "--horizon", "4", "--bank", str(bad)],
            "config": ["partition", "--config", str(bad), "--trips", trips] + out}[kind]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: malformed line 2: {lines[1].strip()!r} ('utf-8' codec can't " \
           "decode byte 0xe9" in err, err


def test_a_metrics_json_that_is_not_utf8_exits_2(tmp_path, capsys):
    # `report` reads a metrics file as a whole, not by lines: a Latin-1
    # byte in it is invalid input (exit code 2) that names the file, not a
    # decoding traceback.
    bad = tmp_path / "latin.json"
    bad.write_bytes('[1, "caf\xe9"]\n'.encode("latin-1"))
    capsys.readouterr()
    assert main(["report", "--metrics", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: not valid JSON: 'utf-8' codec can't decode byte 0xe9" in err, err


def test_training_window_is_whole_model_steps(city, tmp_path, capsys):
    # `train`, `simulate --bank` and a run that trains in-run share one
    # rule: the window spans a positive whole number of model steps.  A
    # one-step window has no variance to fit, so every flow is constant.
    root, trips, net = city
    bank = str(tmp_path / "bank.txt")
    run = ["simulate", "--network", net, "--trips", trips, "--start", "21600",
           "--end", "43200", "--fleet", "5", "--window-days", "0.01"]
    for argv in (["train", "--network", net, "--trips", trips, "--train-end", "21600",
                  "--window-days", "0.01", "--out", bank],
                 run, run + ["--bank", bank]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "training window (864.0 s) must be a positive whole number of " \
               "900.0 s model steps" in capsys.readouterr().err, argv
    assert main(["train", "--network", net, "--trips", trips, "--train-end", "21600",
                 "--window-days", str(900 / 86400), "--out", bank]) == 0
    assert "fitted 0 of 6 station-to-station flows (6 constant)" in capsys.readouterr().out


def test_train_pins_blas_to_one_thread(city, tmp_path):
    # `amodcc train` sets one BLAS thread unless the variables are already
    # set, so removing them must not change the bank file.  Unpinned,
    # OpenBLAS starts one thread per core and this bank's fits differ in
    # their last bits.  On a 1-core machine both runs have one thread
    # whatever the variables say, and the test proves nothing there.
    root, trips, net = city
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    banks = []
    for pinned in (False, True):
        out = tmp_path / f"bank_{pinned}.txt"
        subprocess.run([sys.executable, "-m", "amodcc.cli", "train", "--network", net,
                        "--trips", trips, "--train-end", "43200", "--window-days", "0.5",
                        "--gp-max-iters", "3", "--out", str(out)],
                       env={**env, **dict.fromkeys(BLAS_VARS if pinned else (), "1")},
                       check=True, capture_output=True)
        banks.append(out.read_bytes())
    assert banks[0] == banks[1]


def test_bad_bank_files_exit_2(city, tmp_path, capsys):
    # A bad value inside a flow block, or one that leaves the flow's
    # likelihood not finite (output_scale 1e308), is invalid input (exit
    # code 2), and the message names the line where that flow block starts.
    root, trips, net = city
    good = tmp_path / "bank.txt"
    assert main(["train", "--network", net, "--trips", trips,
                 "--train-end", "21600", "--window-days", "0.25",
                 "--gp-max-iters", "0", "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    flow = next(k for k, ln in enumerate(lines) if ln.startswith("flow") and ln.endswith("gp"))
    simulate = ["simulate", "--network", net, "--trips", trips,
                "--start", "21600", "--end", "43200", "--fleet", "5",
                "--controller", "ccmpc", "--horizon", "4",
                "--window-days", "0.25", "--bank"]
    for key, value in (("center", "abc"), ("center", None), ("noise_var", "1e"),
                       ("noise_var", None), ("a.lengthscale", "x"), ("noise_var", "-1"),
                       ("kernel", "rbf"), ("a.kind", "periodic"), ("b.kind", "rbf"),
                       ("output_scale", "1e308")):
        edited = list(lines)
        at = next(k for k in range(flow, len(lines)) if lines[k].split()[0] == key)
        if value is None:
            del edited[at]
        else:
            edited[at] = f"{key} {value}"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert main(simulate + [str(bad)]) == 2, (key, value)
        assert f"flow block at line {flow + 1}" in capsys.readouterr().err, (key, value)


def test_repeated_bank_block_exits_2(city, tmp_path, capsys):
    # A second block for a station pair, a second header line or a second
    # line for a key inside one flow block is invalid input (exit code 2),
    # not an override, and the message names the second one's line.
    root, trips, net = city
    good = tmp_path / "bank.txt"
    assert main(["train", "--network", net, "--trips", trips,
                 "--train-end", "21600", "--window-days", "0.25",
                 "--gp-max-iters", "0", "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("flow"))
    trained = next(ln for ln in lines if ln.startswith("trained_at"))
    center = next(k for k in range(at, len(lines)) if lines[k].startswith("center"))
    cases = [(lines + lines[at:lines.index("end", at) + 1], len(lines) + 1, "repeated flow"),
             (lines[:at] + [trained] + lines[at:], at + 1, "repeated trained_at"),
             (lines[:center + 1] + lines[center:], center + 2,
              f"repeated center in the flow block at line {at + 1}")]
    for edited, lineno, what in cases:
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert main(["simulate", "--network", net, "--trips", trips,
                     "--start", "21600", "--end", "43200", "--fleet", "5",
                     "--window-days", "0.25", "--bank", str(bad)]) == 2, what
        err = capsys.readouterr().err
        assert f"line {lineno}:" in err and what in err, err


def test_plan_verification_has_no_off_switch(tmp_path):
    # Every plan is verified: the old opt-out is an unknown option, on
    # the command line and in a config file (argparse exits with 2).
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--benchmark", "0", "--no-verify-plans"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no-verify-plans = true\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--benchmark", "0"])
    assert exc.value.code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Every ``amodcc`` command in the README's fenced blocks, its
    backslash-continued lines joined, split into arguments."""
    commands, fenced, pending = [], False, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if line.startswith("amodcc "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    # Parsed, not run: documentation that still uses a removed option or
    # subcommand fails here.
    commands = readme_commands()
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


class _Captured(Exception):
    """Stops a command once the training configuration is known."""


def test_gp_max_iters_keeps_bank_training_defaults(city, monkeypatch, tmp_path):
    root, trips, net = city
    seen = []

    def fake_train_bank(*args, cfg, **kwargs):
        seen.append(cfg)
        raise _Captured

    def fake_run_simulation(scenario, cfg, bank=None):
        seen.append(cfg.gp_train)
        raise _Captured

    monkeypatch.setattr(sim, "train_bank", fake_train_bank)
    monkeypatch.setattr(cli, "run_simulation", fake_run_simulation)
    with pytest.raises(_Captured):
        main(["train", "--network", net, "--trips", trips,
              "--train-end", "21600", "--window-days", "0.25",
              "--gp-max-iters", "15", "--out", str(tmp_path / "bank.json")])
    with pytest.raises(_Captured):
        main(["simulate", "--network", net, "--trips", trips,
              "--start", "21600", "--end", "43200", "--fleet", "5",
              "--gp-max-iters", "15"])
    with pytest.raises(_Captured):
        main(["simulate", "--network", net, "--trips", trips,
              "--start", "21600", "--end", "43200", "--fleet", "5",
              "--gp-max-iters", "4"])
    assert seen[0] == seen[1] == bank_train_config()
    assert seen[0].freeze == ("b.period",)
    assert seen[2] == dataclasses.replace(bank_train_config(), max_iters=4)


def run_demo(name: str, *args: str) -> str:
    """Run ``demos/<name>`` in a subprocess; its output, after exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    demo = Path(__file__).resolve().parent.parent / "demos" / name
    done = subprocess.run([sys.executable, str(demo), *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.slow
def test_forecast_demo_runs():
    # The demo trains the seed-7 bank through the same calls as `train`
    # and prints its busiest flow against the held-out day.
    assert "busiest flow" in run_demo("forecast_day.py", "--seed", "7")


@pytest.mark.slow
@pytest.mark.parametrize("name, args", [
    ("controller_faceoff.py", ()),     # every run places its fleet from history
    ("risk_sweep.py", ("--epsilons", "0.35", "0.5")),
])
def test_demo_runs(name, args):
    assert "controller" in run_demo(name, *args)
