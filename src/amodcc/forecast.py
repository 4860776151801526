"""Per-flow demand forecasting: one GP per station-to-station pair.

Each flow's count series is centered by its training mean and modeled by a
zero-mean GP with a locally periodic kernel (RBF x Periodic, 24 h period).
Station-to-itself flows, which no plan reads, and flows with constant
history get a constant model: the mean, with zero spread.  Flow fits are
independent, so the bank can train them in worker processes (one per usable
core in runs and on the command line), one flow per task.  A worker only
fits, and sends back each start's hyperparameters; this process builds each
start's posterior the way :func:`load_bank` does, scores it and keeps one,
so the bank is bit-identical however many workers train it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInputError, number, read_lines
from .gp import (
    GPTrainingSet,
    LocallyPeriodicKernel,
    TrainConfig,
    TrainedGP,
    predict_batch,
    train,
)

HOUR = 3600.0


def usable_cores() -> int:
    """CPU cores this process may run on: the default bank worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def default_kernel(variance: float) -> LocallyPeriodicKernel:
    """Locally periodic kernel: 3 h lengthscales, 24 h period, given scale."""
    return LocallyPeriodicKernel(lengthscale=3.0, periodic_lengthscale=3.0, period=24.0,
                                 output_scale=variance)


def wide_kernel(variance: float) -> LocallyPeriodicKernel:
    """Wide-envelope start: a multi-day envelope so the daily pattern
    correlates across the whole window instead of just the recent hours."""
    return LocallyPeriodicKernel(lengthscale=96.0, periodic_lengthscale=1.0, period=24.0,
                                 output_scale=variance)


def bank_train_config() -> TrainConfig:
    # With this budget the seed-0 benchmark bank (90 flows, 5-day series)
    # trains in about 3 s on one core of a 2-core x86-64 machine
    # (n_jobs=1); standalone fits should pass a richer config.
    # The period stays pinned to the daily cycle: letting it drift is the
    # easiest way for a short fit to lose the day-over-day structure.
    return TrainConfig(max_iters=15, learning_rate=0.1, tolerance=1e-2,
                       freeze=("b.period",))


# The two starts of every flow fit, in the order ties are broken.
STARTS = ("local", "wide")
# Starts are fitted on each series thinned to about this many samples.
FIT_POINTS = 256


@dataclass
class FlowModel:
    """Forecaster for one origin-destination pair."""

    center: float
    gp: TrainedGP | None = None   # None: constant model, zero spread
    start: str | None = None      # the start in STARTS whose fit was kept

    def predict(self, t_hours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(t_hours, dtype=float).ravel()
        if self.gp is None:
            return np.full(ts.shape, self.center), np.zeros(ts.shape)
        mean, std = predict_batch(self.gp, ts)
        return self.center + mean, std


@dataclass
class ForecastTensor:
    """Posterior mean/std per (origin, destination, distinct query time).

    ``slots[..., k]`` is the column that holds horizon step k of each
    control instant.  For a single instant the query times are distinct
    and increasing, so ``slots`` is ``arange(T+1)`` and the columns are
    the horizon steps themselves.
    """

    mean: np.ndarray   # (N, N, Q)
    std: np.ndarray    # (N, N, Q)
    slots: np.ndarray  # (T+1,) for one instant, (I, T+1) for I instants


@dataclass
class ForecastBank:
    """One model per flow, N x N, plus the shared time axis bookkeeping."""

    models: list[list[FlowModel]]
    interval_seconds: float
    series_origin: float          # epoch seconds at hour axis zero
    window: tuple[float, float]   # training window, epoch seconds
    trained_at: float             # epoch seconds

    @property
    def n_stations(self) -> int:
        return len(self.models)


def _posterior(t_hours: np.ndarray, resid: np.ndarray, kernel: LocallyPeriodicKernel,
               noise_var: float) -> TrainedGP:
    """Exact posterior at fixed hyperparameters: a fit allowed no step."""
    return train(GPTrainingSet(t_hours, resid, noise_var), kernel, TrainConfig(max_iters=0))


def _fit_flow(y: np.ndarray, t_hours: np.ndarray, stride: int, cfg: TrainConfig
              ) -> tuple[tuple[LocallyPeriodicKernel, float, bool, int], ...]:
    """Fit the flow with count series ``y`` from each start, in
    :data:`STARTS` order, on the series thinned by ``stride``.

    Returns each start's ``(kernel, noise_var, converged, n_iters)``:
    hyperparameters and diagnostics only, under 1 KB pickled.  Module
    level, so a worker process can run it.
    """
    resid = y - float(y.mean())
    var = float(y.var())
    sub = GPTrainingSet(t_hours[::stride], resid[::stride], noise_var=0.1 * var)
    fits = (train(sub, init, cfg) for init in (default_kernel(var), wide_kernel(var)))
    return tuple((fit.kernel, fit.noise_var, fit.converged, fit.n_iters) for fit in fits)


def train_bank(
    counts: np.ndarray,
    t_hours: np.ndarray,
    interval_seconds: float,
    series_origin: float,
    window: tuple[float, float],
    trained_at: float,
    cfg: TrainConfig | None = None,
    n_jobs: int = 1,
) -> ForecastBank:
    """Fit one GP per station-to-station flow from per-interval counts.

    ``counts`` is (N, N, M); ``t_hours`` holds the M interval midpoints on
    the bank's hour axis.  A station-to-itself flow, which no plan reads,
    and a flow whose history is constant keep a constant model at their
    mean.  Noise variance is initialized to 0.1x the series variance, the
    kernel scale to the variance itself.

    The likelihood surface is multi-modal: started locally, the fit can
    settle on a short-envelope mode that never looks a full day back.
    Each flow therefore trains from both the local and the wide-envelope
    start.  Hyperparameters are fitted on a series thinned to about
    :data:`FIT_POINTS` samples (the sweep is cubic in length).  Each
    start's posterior is then built once on the full window, and the
    flow keeps the one with the higher likelihood (the local one on a
    tie).

    Each fit runs on its own (:func:`~amodcc.gp.train`).  ``n_jobs > 1``
    hands the flows, one task each and in flow order, to that many forked
    worker processes; with ``n_jobs=1``, or where ``fork`` does not exist,
    the same function fits them in this process.  Only hyperparameters
    come back, and this process builds every posterior from them as
    :func:`load_bank` does.  A fit does not depend on which process runs
    it, so the bank is bit-identical for every ``n_jobs``.  Errors raised
    in a worker reach the caller with their own class.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[0] != counts.shape[1]:
        raise InvalidInputError(f"counts must be (N, N, M), got {counts.shape}")
    t_hours = np.asarray(t_hours, dtype=float).ravel()
    if t_hours.shape[0] != counts.shape[2]:
        raise InvalidInputError("t_hours length must match the count series")
    cfg = cfg or bank_train_config()
    n = counts.shape[0]

    if n_jobs < 1:
        raise InvalidInputError(f"n_jobs must be >= 1, got {n_jobs}")
    stride = max(1, -(-t_hours.size // FIT_POINTS))

    series = counts.astype(float)
    models = [[FlowModel(center=float(series[i, j].mean())) for j in range(n)]
              for i in range(n)]
    flows = [(i, j) for i in range(n) for j in range(n)
             if i != j and float(series[i, j].var()) != 0.0]

    def keep(results):
        # Built and scored as each result arrives, while the workers fit the rest.
        for (i, j), fits in zip(flows, results):
            model = models[i][j]
            resid = series[i, j] - model.center
            for start, (kernel, noise_var, converged, n_iters) in zip(STARTS, fits):
                gp = _posterior(t_hours, resid, kernel, noise_var)
                if model.gp is None or gp.lml > model.gp.lml:
                    gp.converged, gp.n_iters = converged, n_iters
                    model.gp, model.start = gp, start

    fit = partial(_fit_flow, t_hours=t_hours, stride=stride, cfg=cfg)
    rows = [series[i, j] for i, j in flows]
    workers = min(n_jobs, len(flows))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # fork: a spawned worker would import NumPy and SciPy again, which
        # costs about as much as the split saves.
        with ProcessPoolExecutor(workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            keep(pool.map(fit, rows))
    else:
        keep(map(fit, rows))

    return ForecastBank(
        models=models,
        interval_seconds=interval_seconds,
        series_origin=series_origin,
        window=window,
        trained_at=trained_at,
    )


def forecast_demand(
    bank: ForecastBank, t0_epoch, horizon: int, step_seconds: float
) -> ForecastTensor:
    """Forecast over the control horizon of one or more control instants.

    Slot k of an instant at t0 stands for requests appearing during
    ``(t0 + (k-1) dt, t0 + k dt]``, matching the planner's convention that
    step-1 demand is what lands before the next control instant.  Each
    flow model is queried at the interval midpoints; slot 0 (the interval
    that just ended) is filled but ignored by the planner.

    ``t0_epoch`` may be a scalar or an array of instants.  Instants share
    most of their query times, so every flow is predicted once at the
    distinct times, in one batched query; ``slots`` maps each instant's
    horizon back onto them.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if not step_seconds > 0:
        raise InvalidInputError(f"step_seconds must be positive, got {step_seconds}")
    n = bank.n_stations
    t0 = np.asarray(t0_epoch, dtype=float)
    q_hours = (t0[..., None] - bank.series_origin
               + (np.arange(horizon + 1) - 0.5) * step_seconds) / HOUR
    distinct, slots = np.unique(q_hours, return_inverse=True)
    mean = np.zeros((n, n, distinct.size))
    std = np.zeros((n, n, distinct.size))
    for i in range(n):
        for j in range(n):
            mean[i, j], std[i, j] = bank.models[i][j].predict(distinct)
    return ForecastTensor(mean=mean, std=std, slots=slots.reshape(q_hours.shape))


# --- persistence ---------------------------------------------------------------


# Bank format v1 writes the kernel as a product of an RBF (``a``) and a
# periodic (``b``) factor; a flow block must name exactly these kinds.
_KERNEL_KINDS = {"kernel": "product", "a.kind": "rbf", "b.kind": "periodic"}


def _kernel_lines(kernel: LocallyPeriodicKernel) -> list[str]:
    return ["kernel product",
            "a.kind rbf",
            f"a.lengthscale {kernel.lengthscale!r}",
            "b.kind periodic",
            f"b.lengthscale {kernel.periodic_lengthscale!r}",
            f"b.period {kernel.period!r}",
            f"output_scale {kernel.output_scale!r}"]


def save_bank(path: str, bank: ForecastBank) -> None:
    """Serialize hyperparameters and window metadata to a text file.

    The count series itself is not stored; :func:`load_bank` rebuilds the
    posterior from the same history.
    """
    n = bank.n_stations
    lines = ["# amodcc gp bank v1",
             f"stations {n}",
             f"interval_seconds {bank.interval_seconds!r}",
             f"series_origin {bank.series_origin!r}",
             f"window {bank.window[0]!r} {bank.window[1]!r}",
             f"trained_at {bank.trained_at!r}"]
    for i in range(n):
        for j in range(n):
            m = bank.models[i][j]
            if m.gp is None:
                lines.append(f"flow {i} {j} const")
                lines.append(f"center {m.center!r}")
            else:
                lines.append(f"flow {i} {j} gp")
                lines.append(f"center {m.center!r}")
                lines.append(f"noise_var {m.gp.noise_var!r}")
                lines.extend(_kernel_lines(m.gp.kernel))
            lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _flow_model(spec: dict[str, str], path: str, t_hours: np.ndarray,
                series: np.ndarray) -> FlowModel:
    """A flow block's model, its posterior rebuilt on the count ``series``."""
    try:
        center = float(spec["center"])
        if spec["_kind"] == "const":
            return FlowModel(center=center)
        noise = float(spec["noise_var"])
        for key, kind in _KERNEL_KINDS.items():
            if spec.get(key) != kind:
                raise InvalidInputError(
                    f"{key} {spec.get(key)!r}, expected {kind!r} (bank format v1)")
        kernel = LocallyPeriodicKernel(lengthscale=float(spec["a.lengthscale"]),
                                       periodic_lengthscale=float(spec["b.lengthscale"]),
                                       period=float(spec["b.period"]),
                                       output_scale=float(spec["output_scale"]))
        if not (np.isfinite(center) and noise > 0 and np.isfinite(noise)):
            raise InvalidInputError(f"center {center} or noise_var {noise} out of range")
        return FlowModel(center=center, gp=_posterior(t_hours, series - center, kernel, noise))
    except KeyError as exc:
        raise InvalidInputError(
            f"{path}: bad flow block at line {spec['_line']}: missing {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(
            f"{path}: bad flow block at line {spec['_line']}: {exc}") from exc


def load_bank(path: str, counts: np.ndarray, t_hours: np.ndarray) -> ForecastBank:
    """Rebuild a bank from a saved file plus the matching count history.

    Hyperparameters are taken from the file (no re-optimization), and each
    posterior is rebuilt against ``counts``/``t_hours`` the way
    :func:`train_bank` builds it, so the history must cover the same
    training window the file records.  A flow block whose likelihood is
    not finite, a second block for the same pair, a header or block key
    given twice, a header number that is not finite, an interval that is
    not positive or a window that does not start before it ends is
    invalid input.
    """
    counts = np.asarray(counts)
    t_hours = np.asarray(t_hours, dtype=float).ravel()
    header: dict[str, object] = {}
    header_lines: dict[str, int] = {}
    flows: dict[tuple[int, int], dict[str, str]] = {}
    current: dict[str, str] | None = None

    def entry(lineno: int, line: str) -> None:
        nonlocal current
        parts = line.split()
        key = parts[0]
        if key == "flow":
            if parts[3] not in ("const", "gp"):
                raise ValueError(f"unknown flow kind {parts[3]!r}")
            pair = (int(parts[1]), int(parts[2]))
            if pair in flows:
                raise ValueError(f"repeated flow, first at line {flows[pair]['_line']}")
            current = {"_kind": parts[3], "_line": str(lineno)}
            flows[pair] = current
        elif key == "end":
            current = None
        elif current is not None:
            if key in current:
                raise ValueError(
                    f"repeated {key} in the flow block at line {current['_line']}")
            current[key] = parts[1]
        elif key in header_lines:
            raise ValueError(f"repeated {key}, first at line {header_lines[key]}")
        else:
            header_lines[key] = lineno
            if key == "stations":
                header["stations"] = int(parts[1])
            elif key == "interval_seconds":
                header[key] = number(parts[1], key, "finite and positive")
            elif key in ("series_origin", "trained_at"):
                header[key] = number(parts[1], key)
            elif key == "window":
                header[key] = (number(parts[1], key), number(parts[2], key))
                if not header[key][0] < header[key][1]:
                    raise ValueError("the window must start before it ends")
            else:
                raise ValueError(f"unknown key {key!r}")

    read_lines(path, entry)

    for k in ("stations", "interval_seconds", "series_origin", "window", "trained_at"):
        if k not in header:
            raise InvalidInputError(f"{path}: missing header key {k!r}")
    n = int(header["stations"])
    if counts.shape[:2] != (n, n) or counts.shape[2] != t_hours.shape[0]:
        raise InvalidInputError(
            f"history shape {counts.shape} does not match the {n}-station bank")
    w0, w1 = header["window"]  # type: ignore[misc]
    spanned = (w1 - w0) / float(header["interval_seconds"])     # inf if it overflows
    if not (np.isfinite(spanned) and int(round(spanned)) == t_hours.shape[0]):
        raise InvalidInputError(
            f"history has {t_hours.shape[0]} intervals but the bank was "
            f"trained on {spanned:.0f}; it does not match the recorded window")
    if sorted(flows) != [(i, j) for i in range(n) for j in range(n)]:
        raise InvalidInputError(f"{path}: expected one flow block per station pair")

    models = [[_flow_model(flows[(i, j)], path, t_hours, counts[i, j].astype(float))
               for j in range(n)] for i in range(n)]
    return ForecastBank(
        models=models,
        interval_seconds=float(header["interval_seconds"]),
        series_origin=float(header["series_origin"]),
        window=tuple(header["window"]),  # type: ignore[arg-type]
        trained_at=float(header["trained_at"]),
    )
