"""Forecast bank tests.

The load-bearing check is behavioral: a bank trained on a few days of a
strongly daily count series must forecast the next day's peak from the
pattern, not revert to the series mean.  Persistence is checked by
round-tripping hyperparameters and rebuilding the posterior.
"""

import dataclasses
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from bad_numbers import malformed, out_of_domain, replace_token
from hypothesis import given, settings
from hypothesis import strategies as st

from amodcc.errors import InvalidInputError, NumericalError
from amodcc.forecast import (STARTS, ForecastBank, bank_train_config, default_kernel,
                             forecast_demand, load_bank, save_bank,
                             train_bank, wide_kernel)
from amodcc import forecast
from amodcc.gp import GPTrainingSet, TrainConfig, train
from amodcc.mpc import quantile_demand
from amodcc.sim import DemandGrid, benchmark_scenario

INTERVAL = 900.0
DAYS = 5
M = DAYS * 96                       # five days of 15 min intervals
ORIGIN = 1_700_000_000.0            # epoch seconds at hour axis zero


def hour_axis():
    return (np.arange(M) + 0.5) * INTERVAL / 3600.0 - DAYS * 24.0


def planted_counts(seed=3):
    """(2, 2, M) counts: flow 0->1 peaks 7-10 h daily, 1->0 is flat."""
    rng = np.random.default_rng(seed)
    hours = hour_axis() % 24.0
    counts = np.zeros((2, 2, M), dtype=np.int64)
    peak = (hours >= 7.0) & (hours < 10.0)
    counts[0, 1] = np.where(peak, rng.poisson(10.0, M), 0)
    counts[1, 0] = rng.poisson(1.0, M)
    return counts


@pytest.fixture(scope="module")
def planted_bank():
    return train_bank(planted_counts(), hour_axis(), INTERVAL,
                      series_origin=ORIGIN,
                      window=(ORIGIN - DAYS * 86_400.0, ORIGIN),
                      trained_at=ORIGIN)


def test_bank_input_validation():
    with pytest.raises(InvalidInputError, match=r"\(N, N, M\)"):
        train_bank(np.zeros((2, 3, 10)), np.arange(10), INTERVAL,
                   series_origin=0.0, window=(0.0, 1.0), trained_at=1.0)
    with pytest.raises(InvalidInputError, match="length"):
        train_bank(np.zeros((2, 2, 10)), np.arange(9), INTERVAL,
                   series_origin=0.0, window=(0.0, 1.0), trained_at=1.0)
    with pytest.raises(InvalidInputError, match="n_jobs"):
        train_bank(np.zeros((2, 2, 10)), np.arange(10), INTERVAL,
                   series_origin=0.0, window=(0.0, 1.0), trained_at=1.0, n_jobs=0)


def test_constant_flows_get_constant_models(planted_bank):
    # Station-to-itself flows are never fitted, and these never see a
    # trip: center 0, no spread.
    for i in range(2):
        model = planted_bank.models[i][i]
        assert model.gp is None
        mean, std = model.predict([1.0, 50.0])
        assert np.all(mean == 0.0) and np.all(std == 0.0)


def test_bank_forecasts_the_next_days_peak(planted_bank):
    # Query the day after the training window: inside the morning peak the
    # patterned flow must stand well above its 1.25/interval series mean,
    # and must fall back near zero in the small hours.
    peak = forecast_demand(planted_bank, ORIGIN + 8.0 * 3600.0, 4, INTERVAL)
    night = forecast_demand(planted_bank, ORIGIN + 3.0 * 3600.0, 4, INTERVAL)
    assert peak.mean[0, 1, 1:].min() > 6.0
    assert night.mean[0, 1, 1:].max() < 2.0
    assert np.all(peak.std[0, 1, 1:] > 0.0)
    # The flat flow stays near its rate around the clock.
    assert 0.2 < peak.mean[1, 0, 1:].min() <= peak.mean[1, 0, 1:].max() < 2.5
    assert 0.2 < night.mean[1, 0, 1:].min() <= night.mean[1, 0, 1:].max() < 2.5


def test_forecast_axis_matches_flow_queries(planted_bank):
    # Slot k stands for (t0 + (k-1) dt, t0 + k dt]; models are queried at
    # the slot midpoints on the bank's hour axis.
    t0 = ORIGIN + 9.25 * 3600.0
    dt = 600.0
    fc = forecast_demand(planted_bank, t0, 3, dt)
    assert fc.mean.shape == (2, 2, 4) and fc.std.shape == (2, 2, 4)
    q = (t0 - ORIGIN + (np.arange(4) - 0.5) * dt) / 3600.0
    for i in range(2):
        for j in range(2):
            mean, std = planted_bank.models[i][j].predict(q)
            assert fc.mean[i, j] == pytest.approx(mean, abs=1e-12)
            assert fc.std[i, j] == pytest.approx(std, abs=1e-12)
    with pytest.raises(InvalidInputError, match="horizon"):
        forecast_demand(planted_bank, t0, 0, dt)
    with pytest.raises(InvalidInputError, match="step_seconds"):
        forecast_demand(planted_bank, t0, 3, 0.0)


@pytest.mark.parametrize("cadence, distinct", [(INTERVAL, 96 + 4), (300.0, 288 + 12)])
def test_instants_share_one_query_per_flow(planted_bank, cadence, distinct, monkeypatch):
    # A day of control instants, on the step grid or three per step: each
    # fitted flow is predicted once, at the distinct query times, and each
    # instant's slice equals its own per-instant query to 1e-12, with the
    # very same quantile demand.
    calls = []
    predict_batch = forecast.predict_batch

    def counted(gp, t):
        calls.append(len(t))
        return predict_batch(gp, t)

    monkeypatch.setattr(forecast, "predict_batch", counted)
    t0 = ORIGIN + np.arange(0.0, 86_400.0, cadence)
    horizon = 4
    fc = forecast_demand(planted_bank, t0, horizon, INTERVAL)
    assert calls == [distinct, distinct]        # the two fitted flows
    assert fc.mean.shape == fc.std.shape == (2, 2, t0.size, horizon + 1)
    for eps in (0.05, 0.35, 0.5, 0.8):
        table = quantile_demand(fc.mean, fc.std, eps)
        for row, t in enumerate(t0):
            q = (t - ORIGIN + (np.arange(horizon + 1) - 0.5) * INTERVAL) / 3600.0
            mean = np.zeros((2, 2, horizon + 1))
            std = np.zeros((2, 2, horizon + 1))
            for i in range(2):
                for j in range(2):
                    mean[i, j], std[i, j] = planted_bank.models[i][j].predict(q)
            assert np.max(np.abs(fc.mean[:, :, row] - mean)) <= 1e-12
            assert np.max(np.abs(fc.std[:, :, row] - std)) <= 1e-12
            assert np.array_equal(table[:, :, row], quantile_demand(mean, std, eps))


def test_training_escapes_the_short_envelope_mode(planted_bank):
    # Started only locally the fit settles on a mode that forgets the
    # daily pattern; the kept candidate must carry a multi-day envelope.
    gp = planted_bank.models[0][1].gp
    assert gp.kernel.lengthscale > 24.0
    assert gp.kernel.period == pytest.approx(24.0)

    counts = planted_counts()
    t = hour_axis()
    y = counts[0, 1].astype(float)
    local = train(GPTrainingSet(t, y - y.mean(), noise_var=0.1 * y.var()),
                  default_kernel(float(y.var())), bank_train_config())
    assert gp.lml > local.lml


def test_freeze_pins_named_parameters():
    t = hour_axis()[:96]
    rng = np.random.default_rng(0)
    y = np.sin(2 * np.pi * t / 24.0) + 0.1 * rng.standard_normal(96)
    data = GPTrainingSet(t, y, noise_var=0.1)
    cfg = TrainConfig(max_iters=5, freeze=("b.period", "noise_var"))
    gp = train(data, wide_kernel(1.0), cfg)
    # Values survive the log-space round trip, so only up to an ulp.
    assert gp.kernel.period == pytest.approx(24.0, rel=1e-12)
    assert gp.noise_var == pytest.approx(0.1, rel=1e-12)
    assert gp.kernel.lengthscale != 96.0   # unfrozen ones moved
    with pytest.raises(InvalidInputError, match="freeze unknown"):
        train(data, wide_kernel(1.0), TrainConfig(freeze=("b.periods",)))


def same_model(a, b):
    """Bit-identical flow models."""
    assert (a.center, a.start) == (b.center, b.start)
    assert (a.gp is None) == (b.gp is None)
    if a.gp is not None:
        assert a.gp.kernel == b.gp.kernel and a.gp.noise_var == b.gp.noise_var
        assert (a.gp.lml, a.gp.jitter, a.gp.converged, a.gp.n_iters) == \
            (b.gp.lml, b.gp.jitter, b.gp.converged, b.gp.n_iters)
        assert np.array_equal(a.gp.L, b.gp.L) and np.array_equal(a.gp.alpha, b.gp.alpha)


def test_bank_does_not_depend_on_its_batches(monkeypatch):
    # Three stations over two days: every flow busy, some with a daily
    # bump, the six station-to-station ones fitted on series thinned to
    # 48 points.  Worker processes train the flows one task each (three
    # workers: more than this machine class's two cores; five for the two
    # fitted flows of the top-left 2 x 2 bank); a flow trained on its own
    # must come out exactly as it does inside the whole bank.
    monkeypatch.setattr(forecast, "FIT_POINTS", 48)
    rng = np.random.default_rng(8)
    m = 2 * 96
    t = (np.arange(m) + 0.5) * INTERVAL / 3600.0 - 48.0
    bump = ((t % 24.0) >= 8.0) & ((t % 24.0) < 11.0)
    counts = rng.poisson(np.where(bump, 4.0, 1.0) * rng.uniform(0.3, 1.5, (3, 3, 1)))
    kw = dict(interval_seconds=INTERVAL, series_origin=ORIGIN,
              window=(ORIGIN - 2 * 86_400.0, ORIGIN), trained_at=ORIGIN,
              cfg=dataclasses.replace(bank_train_config(), max_iters=6))
    one = train_bank(counts, t, n_jobs=1, **kw)
    split = [train_bank(counts, t, n_jobs=jobs, **kw) for jobs in (2, 3)]
    few = train_bank(counts[:2, :2], t, n_jobs=5, **kw)
    lone = np.zeros_like(counts)
    lone[2, 1] = counts[2, 1]
    alone = train_bank(lone, t, **kw)
    for i in range(3):
        for j in range(3):
            assert (one.models[i][j].gp is None) == (i == j)
            for bank in split:
                same_model(one.models[i][j], bank.models[i][j])
            if i < 2 and j < 2:
                same_model(one.models[i][j], few.models[i][j])
    same_model(one.models[2][1], alone.models[2][1])


def test_station_to_itself_series_reach_no_fit(monkeypatch):
    # Every series varies, the three station-to-itself ones included, yet
    # only the six station-to-station series are fitted: a diagonal flow
    # keeps the constant model at its mean.
    rng = np.random.default_rng(5)
    m = 96
    t = (np.arange(m) + 0.5) * INTERVAL / 3600.0 - 24.0
    counts = rng.poisson(2.0, (3, 3, m))
    fitted = []
    fit_flow = forecast._fit_flow

    def counted(y, *args, **kwargs):
        fitted.append(next((i, j) for i in range(3) for j in range(3)
                           if np.array_equal(counts[i, j], y)))
        return fit_flow(y, *args, **kwargs)

    monkeypatch.setattr(forecast, "_fit_flow", counted)
    bank = train_bank(counts, t, INTERVAL, ORIGIN, (ORIGIN - 86_400.0, ORIGIN), ORIGIN,
                      cfg=TrainConfig(max_iters=1, freeze=("b.period",)))
    assert all(counts[i, i].var() > 0 for i in range(3))
    assert fitted == [(i, j) for i in range(3) for j in range(3) if i != j]
    for i in range(3):
        assert bank.models[i][i].gp is None
        assert bank.models[i][i].center == counts[i, i].mean()


def test_worker_sends_back_hyperparameters_only(planted_bank):
    # A bank worker's result for one flow is each start's fitted
    # hyperparameters and diagnostics, in STARTS order, not a factor; the
    # bank builds and scores both posteriors from them and keeps one.
    y = planted_counts()[0, 1].astype(float)
    result = forecast._fit_flow(y, hour_axis(), 2, bank_train_config())
    assert len(pickle.dumps(result)) < 1024
    assert len(result) == len(STARTS)
    model = planted_bank.models[0][1]
    assert model.start == "wide"
    assert result[1] == (model.gp.kernel, model.gp.noise_var, model.gp.converged,
                         model.gp.n_iters)
    kernel, noise_var = result[0][:2]
    assert forecast._posterior(hour_axis(), y - y.mean(), kernel, noise_var).lml < model.gp.lml


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers need fork; without it the bank trains in-process")
def test_worker_errors_keep_their_class():
    # The 0 -> 1 series is so large that its gram matrix's jitter
    # overflows, so its likelihood is not finite at the initialization.
    # Its worker raises, and the caller sees InvalidInputError (exit code
    # 2 on the command line), not a pool error.
    m = 48
    t = (np.arange(m) + 0.5) * 0.25
    counts = np.ones((2, 2, m))
    counts[0, 1, ::2] = 3.8e153
    counts[1, 0] = np.random.default_rng(0).poisson(3.0, m)
    with np.errstate(over="ignore"), \
            pytest.raises(InvalidInputError, match="not finite at the initialization") as exc:
        train_bank(counts, t, INTERVAL, ORIGIN, (ORIGIN - m * INTERVAL, ORIGIN), ORIGIN,
                   n_jobs=2)
    assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"   # raised in a worker
    # NumericalError (exit code 3) crosses the process boundary the same way.
    for cls in (InvalidInputError, NumericalError):
        assert type(pickle.loads(pickle.dumps(cls("x")))) is cls


def test_bank_reports_the_kept_fits_diagnostics(planted_bank):
    # The kept model carries its hyperparameter fit's own convergence flag
    # and iteration count, and names the start it came from.
    counts, t = planted_counts(), hour_axis()
    assert planted_bank.models[0][1].start == "wide"
    for i, j in ((0, 1), (1, 0)):
        model = planted_bank.models[i][j]
        assert model.start in STARTS
        y = counts[i, j].astype(float)
        var = float(y.var())
        sub = GPTrainingSet(t[::2], (y - y.mean())[::2], noise_var=0.1 * var)
        init = default_kernel(var) if model.start == "local" else wide_kernel(var)
        fit = train(sub, init, bank_train_config())
        assert model.gp.n_iters == fit.n_iters > 0
        assert model.gp.converged == fit.converged


PINNED = Path(__file__).parent / "data" / "bank_seed0_3day.txt"


def seed0_3day_history():
    """Counts and hour axis of the pinned bank's seed-0 3-day window."""
    sc = benchmark_scenario(0, history_days=3.0, sim_days=0.25)
    dt = sc.network.step_seconds
    start = sc.sim_start - 3 * 86_400.0
    grid = DemandGrid(sc.trips, sc.network, start, dt, int(round(3 * 86_400.0 / dt)))
    return sc, grid.counts, grid.midpoint_hours(sc.sim_start)


def assert_matches_pinned_fits(bank, counts, t) -> None:
    """``bank`` holds the pinned file's 90 station-to-station fits, to rel
    1e-9, and each station-to-itself flow as a constant at the file's
    center.  The file is an older one: it holds ``gp`` blocks there."""
    pinned = load_bank(str(PINNED), counts, t)
    fitted = 0
    for i, (row, pinned_row) in enumerate(zip(bank.models, pinned.models)):
        for j, (a, b) in enumerate(zip(row, pinned_row)):
            assert a.center == b.center
            if i == j:
                assert a.gp is None and b.gp is not None
                continue
            assert (a.gp is None) == (b.gp is None)
            if a.gp is None:
                continue
            fitted += 1
            ka, kb = a.gp.kernel, b.gp.kernel
            got = [ka.lengthscale, ka.periodic_lengthscale, ka.period,
                   ka.output_scale, a.gp.noise_var, a.gp.lml]
            want = [kb.lengthscale, kb.periodic_lengthscale, kb.period,
                    kb.output_scale, b.gp.noise_var, b.gp.lml]
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    assert fitted == 90


def train_seed0_3day_bank():
    """The seed-0 benchmark bank on the pinned 3-day window, its counts
    and its hour axis."""
    sc, counts, t = seed0_3day_history()
    start = sc.sim_start - 3 * 86_400.0
    bank = train_bank(counts, t, sc.network.step_seconds, series_origin=sc.sim_start,
                      window=(start, sc.sim_start), trained_at=sc.sim_start)
    return bank, counts, t


@pytest.mark.slow
def test_bank_matches_the_pinned_seed0_fits():
    # The seed-0 benchmark bank on a 3-day window, as pinned in the file
    # (saved hyperparameters): the per-flow trainer must land on the same
    # fits, and the likelihoods rebuilt from the file must match.
    assert_matches_pinned_fits(*train_seed0_3day_bank())


# Run in a fresh interpreter: OpenBLAS reads OPENBLAS_CORETYPE when it loads.
ON_ANOTHER_KERNEL_SET = """
import sys
from test_forecast import assert_matches_pinned_fits, train_seed0_3day_bank
from test_golden import record_period
from amodcc.report import write_metrics_csv

assert_matches_pinned_fits(*train_seed0_3day_bank())
write_metrics_csv(sys.argv[1], [record_period()[0]])
"""


@pytest.mark.slow
def test_fits_and_plans_do_not_depend_on_the_blas_kernels(tmp_path):
    # Another OpenBLAS kernel set (Prescott, which predates AVX) must leave
    # the seed-0 bank within the pinned test's tolerance and the golden
    # ccmpc period's metrics row byte for byte.  The variable picks the
    # kernels only in a DYNAMIC_ARCH build, and the fits' factorizations
    # run in SciPy's OpenBLAS, the rest in NumPy's: both must be one.
    import numpy.__config__
    import scipy.__config__
    static = {}
    for lib in (numpy, scipy):
        deps = lib.__config__.CONFIG.get("Build Dependencies", {})
        for part in ("blas", "lapack"):
            build = deps.get(part, {}).get("openblas configuration", "none")
            if "DYNAMIC_ARCH" not in build.split():
                static[f"{lib.__name__} {part}"] = build
    if static:
        pytest.skip(f"OPENBLAS_CORETYPE selects no kernels here: not DYNAMIC_ARCH: {static}")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here),
                                         env.get("PYTHONPATH", "")])
    out = tmp_path / "ccmpc.csv"
    done = subprocess.run([sys.executable, "-c", ON_ANOTHER_KERNEL_SET, str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    golden = (here / "data" / "golden_seed0_6h.csv").read_bytes().splitlines(keepends=True)
    assert out.read_bytes() == b"".join(golden[:2])


# --- persistence ----------------------------------------------------------------


def test_pinned_bank_file_saves_back_byte_identical(tmp_path):
    # Bank format v1 as written at the time the file was recorded: loading
    # it and saving it again must reproduce it byte for byte.
    _, counts, t = seed0_3day_history()
    bank = load_bank(str(PINNED), counts, t)
    out = tmp_path / "bank.txt"
    save_bank(str(out), bank)
    assert out.read_bytes() == PINNED.read_bytes()


def test_trained_and_loaded_posteriors_are_bit_identical(tmp_path, planted_bank):
    # Training and loading build a posterior the same way, from the saved
    # hyperparameters and the count history.
    path = tmp_path / "bank.txt"
    save_bank(str(path), planted_bank)
    loaded = load_bank(str(path), planted_counts(), hour_axis())
    fitted = 0
    for row, loaded_row in zip(planted_bank.models, loaded.models):
        for a, b in zip(row, loaded_row):
            assert (a.gp is None) == (b.gp is None)
            if a.gp is not None:
                fitted += 1
                assert np.array_equal(a.gp.L, b.gp.L)
                assert np.array_equal(a.gp.alpha, b.gp.alpha)
                assert a.gp.lml == b.gp.lml
    assert fitted == 2


def test_save_load_round_trip(tmp_path, planted_bank):
    path = tmp_path / "bank.txt"
    save_bank(str(path), planted_bank)
    text = path.read_text()
    assert "np." not in text                     # plain decimals only
    loaded = load_bank(str(path), planted_counts(), hour_axis())
    assert loaded.n_stations == 2
    assert loaded.interval_seconds == INTERVAL
    assert loaded.series_origin == ORIGIN
    assert loaded.window == planted_bank.window
    assert loaded.trained_at == planted_bank.trained_at

    q = np.linspace(1.0, 30.0, 40)
    for i in range(2):
        for j in range(2):
            m0, s0 = planted_bank.models[i][j].predict(q)
            m1, s1 = loaded.models[i][j].predict(q)
            assert m1 == pytest.approx(m0, abs=1e-9)
            assert s1 == pytest.approx(s0, abs=1e-9)


def test_load_rejects_mismatched_history(tmp_path, planted_bank):
    path = tmp_path / "bank.txt"
    save_bank(str(path), planted_bank)
    with pytest.raises(InvalidInputError, match="does not match"):
        load_bank(str(path), planted_counts()[:, :, :-1], hour_axis()[:-1])
    bad = np.zeros((3, 3, M))
    with pytest.raises(InvalidInputError, match="does not match"):
        load_bank(str(path), bad, hour_axis())
    # A window of finite ends whose span overflows spans no history.
    text = path.read_text()
    window = next(ln for ln in text.splitlines() if ln.startswith("window "))
    path.write_text(text.replace(window, "window -1e308 1e308"))
    with pytest.raises(InvalidInputError, match="trained on inf; it does not match"):
        load_bank(str(path), planted_counts(), hour_axis())


def test_load_rejects_damaged_files(tmp_path, planted_bank):
    path = tmp_path / "bank.txt"
    save_bank(str(path), planted_bank)
    lines = path.read_text().splitlines()

    missing = [ln for ln in lines if not ln.startswith("trained_at")]
    (tmp_path / "missing.txt").write_text("\n".join(missing) + "\n")
    with pytest.raises(InvalidInputError, match="trained_at"):
        load_bank(str(tmp_path / "missing.txt"), planted_counts(), hour_axis())

    (tmp_path / "garbled.txt").write_text("\n".join(lines + ["what is this"]))
    n_lines = len(lines) + 1
    with pytest.raises(InvalidInputError, match=f"line {n_lines}"):
        load_bank(str(tmp_path / "garbled.txt"), planted_counts(), hour_axis())

    first_flow = next(k for k, ln in enumerate(lines) if ln.startswith("flow"))
    (tmp_path / "truncated.txt").write_text("\n".join(lines[:first_flow]) + "\n")
    with pytest.raises(InvalidInputError, match="one flow block"):
        load_bank(str(tmp_path / "truncated.txt"), planted_counts(), hour_axis())


def test_load_rejects_a_repeated_flow_block(tmp_path):
    # A second block for a pair that already has one is invalid input,
    # not an override; the message names the second block's line.
    _, counts, t = seed0_3day_history()
    lines = PINNED.read_text().splitlines()
    at = lines.index("flow 0 1 gp")
    block = [("center 123.0" if ln.startswith("center") else ln)
             for ln in lines[at:lines.index("end", at) + 1]]
    path = tmp_path / "repeated.txt"
    path.write_text("\n".join(lines + block) + "\n")
    with pytest.raises(InvalidInputError,
                       match=f"line {len(lines) + 1}: 'flow 0 1 gp' "
                             f"\\(repeated flow, first at line {at + 1}\\)"):
        load_bank(str(path), counts, t)


def test_load_rejects_repeated_keys(tmp_path):
    # A second header line (trained_at) or a second center or noise_var
    # line inside one flow block is invalid input, not an override; the
    # message names the repeated line, and for a block the line it starts.
    _, counts, t = seed0_3day_history()
    lines = PINNED.read_text().splitlines()
    path = tmp_path / "repeated.txt"
    path.write_text("\n".join(lines + ["trained_at 123.0"]) + "\n")
    first = next(k for k, ln in enumerate(lines) if ln.startswith("trained_at ")) + 1
    with pytest.raises(InvalidInputError,
                       match=f"line {len(lines) + 1}: 'trained_at 123.0' "
                             f"\\(repeated trained_at, first at line {first}\\)"):
        load_bank(str(path), counts, t)
    at = lines.index("flow 0 1 gp")
    for key in ("center", "noise_var"):
        edited = list(lines)
        edited.insert(at + 1, f"{key} 1.0")
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(InvalidInputError,
                           match=f"repeated {key} in the flow block at line {at + 1}"):
            load_bank(str(path), counts, t)


# The rule of each header number of a bank file, by token position.
HEADER_RULES = {"interval_seconds": {1: "finite and positive"},
                "series_origin": {1: "finite"},
                "window": {1: "finite", 2: "finite"},
                "trained_at": {1: "finite"}}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_load_refuses_any_bad_header_number(tmp_path_factory, planted_bank, data):
    # A header number that is not finite, or an interval <= 0, is refused
    # in the one input-error format, naming the file and the line.
    path = tmp_path_factory.mktemp("bank") / "bank.txt"
    save_bank(str(path), planted_bank)
    lines = path.read_text().splitlines()
    key = data.draw(st.sampled_from(sorted(HEADER_RULES)))
    slot, rule = data.draw(st.sampled_from(sorted(HEADER_RULES[key].items())))
    bad = data.draw(out_of_domain(rule))
    at = next(k for k, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[at] = replace_token(lines[at], slot, bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError) as exc:
        load_bank(str(path), planted_counts(), hour_axis())
    assert str(exc.value) == malformed(path, at + 1, lines[at],
                                       f"{key} must be {rule}, got {float(bad)}")


@pytest.mark.parametrize("key, value, why", [
    ("interval_seconds", "nan", "interval_seconds must be finite and positive, got nan"),
    ("interval_seconds", "0.0", "interval_seconds must be finite and positive, got 0.0"),
    ("series_origin", "inf", "series_origin must be finite, got inf"),
    ("window", "nan nan", "window must be finite, got nan"),
    ("window", f"{ORIGIN!r} {ORIGIN - DAYS * 86_400.0!r}",
     "the window must start before it ends"),
    ("trained_at", "nan", "trained_at must be finite, got nan"),
])
def test_load_rejects_bad_header_numbers(tmp_path, planted_bank, key, value, why):
    # A header number that is not finite, a zero interval or a window that
    # ends before it starts is invalid input naming the file and the line,
    # not a ValueError or ZeroDivisionError from the arithmetic on it, and
    # not a bank that loads with it.
    path = tmp_path / "bank.txt"
    save_bank(str(path), planted_bank)
    lines = path.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[at] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{path}: malformed line {at + 1}: "
                                       f"'{key} {value}' ({why})")):
        load_bank(str(path), planted_counts(), hour_axis())
