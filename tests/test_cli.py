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
from amodcc import cli
from amodcc.cli import main
from amodcc.forecast import bank_train_config
from amodcc.network import load_network
from amodcc.sim import CONTROLLERS


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
    for name in ("simulate", "sweep"):
        option = commands[name]._option_string_actions["--controller"]
        assert tuple(option.choices) == CONTROLLERS


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("stations\n")
    rc = main(["partition", "--config", str(bad), "--trips", "x", "--out", "y"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err
    rc = main(["--config", str(bad)])
    assert rc == 2


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
    # fewer than one sweep worker
    assert main(["sweep", "--jobs", "0"]) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err
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
    # A second block for a station pair is invalid input (exit code 2),
    # and the message names the line where the second block starts.
    root, trips, net = city
    good = tmp_path / "bank.txt"
    assert main(["train", "--network", net, "--trips", trips,
                 "--train-end", "21600", "--window-days", "0.25",
                 "--gp-max-iters", "0", "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("flow"))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines + lines[at:lines.index("end", at) + 1]) + "\n")
    capsys.readouterr()
    assert main(["simulate", "--network", net, "--trips", trips,
                 "--start", "21600", "--end", "43200", "--fleet", "5",
                 "--window-days", "0.25", "--bank", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line {len(lines) + 1}" in err and "repeated flow" in err


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

    monkeypatch.setattr(cli, "train_bank", fake_train_bank)
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
