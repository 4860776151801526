"""Gaussian process regression for demand time series.

One-dimensional inputs (time, in hours), real-valued targets (request
counts).  Exact inference throughout: Cholesky factorization of the gram
matrix (LAPACK ``dpotrf``), analytic gradients of the log marginal
likelihood, gradient-ascent hyperparameter search in log space.  No sparse
or variational shortcuts.  On a uniform time grid the gram matrix is the
kernel at the lags ``t - t[0]``, symmetric Toeplitz, and the gradient
takes the lag sums of its inverse from one solve (Gohberg-Semencul)
instead of forming the inverse; other times use the dense gaps.

Where a gram matrix or a cross-covariance is gathered for LAPACK, kernel
values below ``1e-100`` of the output scale are set to exact zero: short
envelopes otherwise leave subnormal floats there, on which the
factorization and the solves run several times slower.  That changes K by
far less than the ``1e-6`` relative jitter its factorization adds, and
:meth:`LocallyPeriodicKernel.value` and :func:`kernel_matrix` keep the
exact closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.special import ndtri

from .errors import InvalidInputError, NumericalError

LOG_2PI = math.log(2.0 * math.pi)


# --- kernel ------------------------------------------------------------------

# Log-parameter names in gradient order.  ``a`` is the RBF envelope and
# ``b`` the periodic factor; ``TrainConfig.freeze`` and the bank file use
# these names.
PARAM_NAMES = ("a.lengthscale", "b.lengthscale", "b.period", "output_scale")


@dataclass(frozen=True)
class LocallyPeriodicKernel:
    """An RBF envelope times a periodic factor, with one output scale:

        s2 * exp(-dt^2 / (2 l^2)) * exp(-2 sin^2(pi dt / p) / lp^2)

    with ``l`` the envelope's lengthscale, ``lp`` the periodic lengthscale
    and ``p`` the period, all in hours.
    """

    lengthscale: float
    periodic_lengthscale: float
    period: float
    output_scale: float = 1.0

    def __post_init__(self):
        for name in ("lengthscale", "periodic_lengthscale", "period"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise InvalidInputError(f"{name} must be > 0, got {v}")
        if not (self.output_scale >= 0 and np.isfinite(self.output_scale)):
            raise InvalidInputError(f"output_scale must be >= 0, got {self.output_scale}")

    def _factors(self, dt: np.ndarray):
        envelope = np.exp(-(dt * dt) / (2.0 * self.lengthscale**2))
        u = np.pi * dt / self.period
        s = np.sin(u)
        return envelope, np.exp(-2.0 * s * s / self.periodic_lengthscale**2), u, s

    def value(self, dt: np.ndarray) -> np.ndarray:
        envelope, periodic, _, _ = self._factors(dt)
        return self.output_scale * envelope * periodic

    def diag_value(self) -> float:
        return self.output_scale

    def log_params(self) -> list[float]:
        """Trainable parameters in :data:`PARAM_NAMES` order, in log space."""
        if self.output_scale <= 0:
            raise InvalidInputError("output_scale must be > 0 to train in log space")
        return [math.log(self.lengthscale), math.log(self.periodic_lengthscale),
                math.log(self.period), math.log(self.output_scale)]

    def with_log_params(self, vals) -> "LocallyPeriodicKernel":
        return replace(self, lengthscale=math.exp(vals[0]),
                       periodic_lengthscale=math.exp(vals[1]),
                       period=math.exp(vals[2]), output_scale=math.exp(vals[3]))

    def grads(self, dt: np.ndarray) -> list[np.ndarray]:
        """Derivatives of :meth:`value` over the three shape log parameters."""
        envelope, periodic, u, s = self._factors(dt)
        scaled = self.output_scale * envelope
        lp2 = self.periodic_lengthscale**2
        # d/d log l = k dt^2 / l^2
        g_l = self.output_scale * (envelope * (dt * dt) / self.lengthscale**2) * periodic
        # d/d log lp = k 4 sin^2(u) / lp^2
        g_lp = scaled * (periodic * 4.0 * s * s / lp2)
        # d/d log p = k (2 pi dt / (lp^2 p)) sin(2u)
        g_p = scaled * (periodic * (2.0 * np.pi * dt / (lp2 * self.period)) * np.sin(2.0 * u))
        return [g_l, g_lp, g_p]


def kernel_matrix(kernel: LocallyPeriodicKernel, ta: np.ndarray,
                  tb: np.ndarray) -> np.ndarray:
    dt = np.subtract.outer(np.asarray(ta, float), np.asarray(tb, float))
    return kernel.value(dt)


# Kernel values smaller than this fraction of the output scale are
# flushed to zero before LAPACK sees them (see the module docstring).
_FLUSH = 1e-100


def _flushed(values: np.ndarray, kernel: LocallyPeriodicKernel) -> np.ndarray:
    """``values`` with every entry below ``_FLUSH * output_scale`` in
    magnitude set to exact zero, in place."""
    values[np.abs(values) < _FLUSH * kernel.output_scale] = 0.0
    return values


# --- training data and gaps ------------------------------------------------------


@dataclass
class GPTrainingSet:
    """Inputs t (hours), targets y, and the observation noise variance."""

    t: np.ndarray
    y: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).ravel()
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.t.shape[0] == 0:
            raise InvalidInputError("training set must not be empty")
        if self.t.shape != self.y.shape:
            raise InvalidInputError(
                f"t and y lengths differ: {self.t.shape[0]} vs {self.y.shape[0]}")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.y))):
            raise InvalidInputError("training data must be finite")
        if not (self.noise_var > 0 and np.isfinite(self.noise_var)):
            raise InvalidInputError(f"noise_var must be > 0, got {self.noise_var}")

    @property
    def n(self) -> int:
        return self.t.shape[0]


def _gaps(t: np.ndarray) -> np.ndarray:
    """The gaps of a fit's gram: the n lags ``t - t[0]`` where each step
    equals the first to within four ulps of max|t|, below the precision
    of ``t`` itself, and the (n, n) matrix |t_i - t_j| for any other
    ``t``: irregular, repeated or decreasing times."""
    t = np.asarray(t, dtype=float).ravel()
    step = np.diff(t)
    if step.size == 0 or (step[0] > 0 and np.all(
            np.abs(step - step[0]) <= 4.0 * np.spacing(np.abs(t).max()))):
        return t - t[0]
    return np.abs(np.subtract.outer(t, t))


@lru_cache(maxsize=4)
def _lag_index(n: int) -> np.ndarray:
    """The (n, n) lags |i - j|, read-only: shared by every fit on n points."""
    lag = np.arange(n)
    index = np.abs(np.subtract.outer(lag, lag))
    index.flags.writeable = False
    return index


@lru_cache(maxsize=2)
def _cross_gaps(t: bytes, t_star: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The distinct gaps t_i - t*_j between training and query times, and
    the (n, m) positions of every pair's gap among them.

    Every flow of a bank shares its training grid and is queried at the
    same times, so one forecast builds this once, not once per flow.
    """
    ta, tb = np.frombuffer(t), np.frombuffer(t_star)
    values, index = np.unique(np.subtract.outer(ta, tb), return_inverse=True)
    index = index.reshape(ta.shape[0], tb.shape[0])
    values.flags.writeable = index.flags.writeable = False   # shared by every caller
    return values, index


# --- factorization ---------------------------------------------------------------


def _factor(gaps: np.ndarray, kernel: LocallyPeriodicKernel, noise: float):
    """Noise-augmented gram matrix of one fit over its :func:`_gaps`, tiny
    kernel values flushed to zero, and its lower factor.

    Returns ``(K, L, jitter)``.  Jitter starts at ``1e-6 * trace / n`` and
    escalates tenfold, at most three times, while the factorization fails.
    ``L`` is None where all four failed or the gram is not finite; then
    ``jitter`` is the last one tried.
    """
    n = gaps.shape[0]
    d = np.arange(n)
    values = _flushed(kernel.value(gaps), kernel)
    K = values[_lag_index(n)] if gaps.ndim == 1 else values
    K[d, d] += noise
    base = K[d, d]
    with np.errstate(over="ignore"):       # a jitter that overflows fails below
        jitter = float(1e-6 * base.sum() / n)
    if not (np.isfinite(values).all() and math.isfinite(jitter)):
        return K, None, jitter
    for attempt in range(4):
        if attempt:
            jitter *= 10.0
        K[d, d] = base + jitter
        # K is symmetric, so its transpose is K again, Fortran-ordered;
        # the factor comes back Fortran-ordered with zeros above.
        L, info = dpotrf(K.T, lower=1, clean=1)
        if info == 0:
            return K, L, jitter
    return K, None, jitter


def _solve(L: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """LML and ``alpha = K^-1 y`` from the lower factor of K."""
    alpha = dpotrs(L, y, lower=1)[0]
    lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.shape[0] * LOG_2PI)
    return lml, alpha


class _Point(NamedTuple):
    """One fit factored at fixed hyperparameters."""

    kernel: LocallyPeriodicKernel
    noise: float
    lml: float
    L: np.ndarray
    alpha: np.ndarray
    jitter: float


def _w_sums(gaps: np.ndarray, p: _Point) -> tuple[np.ndarray, float]:
    """``W = a a' - K^-1`` at a factored point, summed per lag on a uniform
    grid and flattened on any other, and its trace."""
    if gaps.ndim == 1:
        # K is symmetric Toeplitz, so with x = K^-1 e1, v = (0, x_{n-1},
        # ..., x_1) and T(u) the lower-triangular Toeplitz matrix with first
        # column u, K^-1 = (T(x) T(x)' - T(v) T(v)') / x_0 (Gohberg-Semencul).
        # The lag-g diagonal of T(u) T(u)' sums to sum_m (n-g-m) u_m u_{m+g},
        # the correlation of u with (n - m) u.  Lags g >= 1 occur on both
        # sides of the diagonal.
        n = gaps.shape[0]
        e1 = np.zeros(n)
        e1[0] = 1.0
        x = dpotrs(p.L, e1, lower=1)[0]
        v = np.zeros(n)
        v[1:] = x[:0:-1]
        weight = n - np.arange(n)

        def lag(u, w):                  # sum_m u_m w_{m+g}, g = 0 .. n-1
            return np.correlate(w, u, "full")[n - 1:]

        s = lag(p.alpha, p.alpha) - (lag(x, weight * x) - lag(v, weight * v)) / x[0]
        s[1:] *= 2.0
        return s, float(s[0])                       # gap 0 is the diagonal alone
    # Any other grid: K^-1 from the factor, in its lower triangle (zeros
    # above), mirrored into the upper one.
    inv = dpotri(p.L, lower=1)[0]
    inv += np.tril(inv, -1).T
    w = np.outer(p.alpha, p.alpha) - inv
    return w.ravel(), float(np.trace(w))


def _gradient(gaps: np.ndarray, p: _Point, include_noise: bool) -> np.ndarray:
    """LML gradient over log hyperparameters at a factored point.

    Component order: kernel shape parameters, log output scale, then (when
    ``include_noise``) log noise variance.  Each component is ``1/2
    sum(W * dK)`` with ``W = a a' - K^-1``, ``a = K^-1 y`` and ``dK`` the
    gram derivative for that log parameter.  Off its diagonal terms, dK
    is a function of the gap, so the sum runs over W summed per gap
    (:func:`_w_sums`): O(n^2) lag sums from one solve on a uniform grid,
    where K is Toeplitz, and W from K^-1 (O(n^3)) on any other.
    """
    s, tr = _w_sums(gaps, p)
    value = p.kernel.value(gaps).ravel()
    comps = [g.ravel() @ s for g in p.kernel.grads(gaps)]
    # The stabilizing jitter tracks the gram trace, so it moves with the
    # scale parameters; fold its derivative in or finite differences of
    # the implemented likelihood disagree at the 1e-5 level.
    diag = p.kernel.diag_value()
    rate = p.jitter / (diag + p.noise)
    comps.append(value @ s + rate * diag * tr)                 # log s2
    if include_noise:
        comps.append((1.0 + rate) * p.noise * tr)
    return 0.5 * np.array(comps)


def _one(kernel: LocallyPeriodicKernel, t: np.ndarray, noise_var: float):
    """Factor a single fit; raise if it fails."""
    gaps = _gaps(t)
    K, L, jitter = _factor(gaps, kernel, float(noise_var))
    if L is None:
        raise NumericalError(
            f"gram matrix not positive definite after jitter escalation to {jitter:g}")
    return gaps, K, L, jitter


def gram_matrix(
    kernel: LocallyPeriodicKernel, t: np.ndarray, noise_var: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Noise-augmented gram matrix and its lower Cholesky factor.

    Returns ``(K, L, jitter)`` where ``K = kernel(t, t) + noise_var I +
    jitter I``, with kernel values below ``1e-100`` of the output scale
    set to zero.  Jitter starts at ``1e-6 * trace / n`` and escalates
    tenfold, at most three times, when the factorization fails; after that
    a :class:`NumericalError` is raised.
    """
    _, K, L, jitter = _one(kernel, t, noise_var)
    return K, L, jitter


# --- log marginal likelihood and gradient ------------------------------------


def log_marginal_likelihood(data: GPTrainingSet, kernel: LocallyPeriodicKernel) -> float:
    """Exact LML: -1/2 y' K^-1 y - 1/2 log|K| - n/2 log(2 pi)."""
    _, _, L, _ = _one(kernel, data.t, data.noise_var)
    return _solve(L, data.y)[0]


def lml_gradient(
    data: GPTrainingSet, kernel: LocallyPeriodicKernel, include_noise: bool = True
) -> np.ndarray:
    """Gradient of the LML over log hyperparameters (see :func:`_gradient`)."""
    gaps, _, L, jitter = _one(kernel, data.t, data.noise_var)
    lml, alpha = _solve(L, data.y)
    return _gradient(gaps, _Point(kernel, data.noise_var, lml, L, alpha, jitter),
                     include_noise)


# --- training -----------------------------------------------------------------


# Step halvings the line search tries per iteration before the fit stops.
MAX_HALVINGS = 25


@dataclass
class TrainConfig:
    """Gradient-ascent budget for hyperparameter search."""

    max_iters: int = 50
    learning_rate: float = 0.1
    tolerance: float = 1e-3      # stop when the gradient 2-norm drops below
    freeze: tuple[str, ...] = ()   # PARAM_NAMES or "noise_var", held at their init

    def validate(self) -> None:
        if self.max_iters < 0 or self.learning_rate <= 0 or self.tolerance < 0:
            raise InvalidInputError("bad training configuration")


@dataclass
class TrainedGP:
    """A fitted zero-mean GP: kernel, noise, and cached factorization."""

    kernel: LocallyPeriodicKernel
    t: np.ndarray
    y: np.ndarray
    noise_var: float
    L: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    jitter: float
    lml: float
    lml_trace: list[float] = field(repr=False)
    converged: bool
    n_iters: int


def train(data: GPTrainingSet, init: LocallyPeriodicKernel,
          cfg: TrainConfig | None = None) -> TrainedGP:
    """Fit one GP's hyperparameters by gradient ascent on its LML in log space.

    A step-halving line search: a step is accepted only if it strictly
    improves the LML (then the next first step is ``min(1.5 step, 10)``),
    with at most :data:`MAX_HALVINGS` tries per iteration.  The fit stops once
    its gradient 2-norm drops below ``tolerance``, once no try improves, or
    after ``max_iters`` iterations.  The accepted trace is non-decreasing,
    so the result is never worse than its initialization; with
    ``max_iters=0`` it is the exact posterior there.  Raises
    :class:`InvalidInputError` where the LML is not finite at ``init``.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    theta = np.array(init.log_params() + [math.log(data.noise_var)])
    names = [*PARAM_NAMES, "noise_var"]
    unknown = set(cfg.freeze) - set(names)
    if unknown:
        raise InvalidInputError(f"cannot freeze unknown parameters {sorted(unknown)}")
    mask = np.array([0.0 if nm in cfg.freeze else 1.0 for nm in names])
    gaps = _gaps(data.t)

    def at(theta: np.ndarray) -> _Point | None:
        """The fit at ``theta``, or None for a rejected point: parameters
        that over/underflow exp() or are invalid, a gram with no factor,
        or an LML that is not finite."""
        try:
            kern = init.with_log_params(theta)
            noise = math.exp(theta[-1])
        except (OverflowError, InvalidInputError):
            return None
        if not (noise > 0 and math.isfinite(noise)):
            return None
        _, L, jitter = _factor(gaps, kern, noise)
        if L is None:
            return None
        lml, alpha = _solve(L, data.y)
        return _Point(kern, noise, lml, L, alpha, jitter) if math.isfinite(lml) else None

    point = at(theta)
    if point is None:
        raise InvalidInputError("log marginal likelihood is not finite at the initialization")
    trace = [point.lml]
    lr, iters, converged = cfg.learning_rate, 0, False
    while iters < cfg.max_iters:
        grad = mask * _gradient(gaps, point, include_noise=True)
        if float(np.linalg.norm(grad)) < cfg.tolerance:
            converged = True
            break
        iters += 1
        step = lr
        for _ in range(MAX_HALVINGS):
            trial = theta + step * grad
            cand = at(trial)
            if cand is not None and cand.lml > point.lml:
                theta, point = trial, cand
                trace.append(point.lml)
                lr = min(step * 1.5, 10.0)
                break
            step *= 0.5
        else:
            break
    return TrainedGP(kernel=point.kernel, t=data.t.copy(), y=data.y.copy(),
                     noise_var=point.noise, L=point.L, alpha=point.alpha,
                     jitter=point.jitter, lml=point.lml, lml_trace=trace,
                     converged=converged, n_iters=iters)


# --- prediction ----------------------------------------------------------------


def predict_batch(gp: TrainedGP, t_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean/std arrays at the query times.

    mean = k*' K^-1 y; var = k(t*, t*) + noise - k*' K^-1 k*, floored at
    zero before the square root.  k* is flushed like the gram matrix.
    """
    ts = np.asarray(t_star, dtype=float).ravel()
    values, index = _cross_gaps(gp.t.tobytes(), ts.tobytes())
    k_star = _flushed(gp.kernel.value(values), gp.kernel)[index]   # (n, m)
    mean = k_star.T @ gp.alpha
    v = solve_triangular(gp.L, k_star, lower=True, check_finite=False)  # L v = k*
    var = gp.kernel.diag_value() + gp.noise_var - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    return mean, np.sqrt(var)


# --- Gaussian quantile ----------------------------------------------------------

def standard_normal_quantile(p):
    """Inverse standard normal CDF, vectorized; exact zero at p = 0.5."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InvalidInputError("quantile probability must lie strictly inside (0, 1)")
    x = ndtri(arr)
    if np.isscalar(p) or np.ndim(p) == 0:
        return float(x)
    return x


def gaussian_quantile(p, mean, std):
    """Quantile of N(mean, std^2): mean + std * Phi^-1(p).

    ``std`` may be zero, in which case the result is exactly ``mean``.
    """
    std_arr = np.asarray(std, dtype=float)
    if np.any(std_arr < 0) or np.any(~np.isfinite(std_arr)):
        raise InvalidInputError("std must be finite and >= 0")
    z = standard_normal_quantile(p)
    out = np.asarray(mean, dtype=float) + std_arr * z
    if np.ndim(out) == 0:
        return float(out)
    return out
