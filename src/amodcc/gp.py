"""Gaussian process regression for demand time series.

One-dimensional inputs (time, in hours), real-valued targets (request
counts).  Exact inference throughout: Cholesky factorization of the gram
matrix, analytic gradients of the log marginal likelihood, gradient-ascent
hyperparameter search in log space.  No sparse or variational shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import ndtri

from .errors import InvalidInputError, NumericalError

LOG_2PI = math.log(2.0 * math.pi)


# --- kernels -----------------------------------------------------------------


@dataclass(frozen=True)
class RBFKernel:
    """Squared-exponential kernel s2 * exp(-dt^2 / (2 l^2))."""

    lengthscale: float
    output_scale: float = 1.0

    def validate(self, top: bool = True) -> None:
        if not (self.lengthscale > 0 and np.isfinite(self.lengthscale)):
            raise InvalidInputError(f"RBF lengthscale must be > 0, got {self.lengthscale}")
        if not (self.output_scale >= 0 and np.isfinite(self.output_scale)):
            raise InvalidInputError(f"output_scale must be >= 0, got {self.output_scale}")
        if not top and self.output_scale != 1.0:
            raise InvalidInputError("child kernels must have output_scale 1.0")

    def value(self, dt: np.ndarray) -> np.ndarray:
        return self.output_scale * np.exp(-(dt * dt) / (2.0 * self.lengthscale**2))

    def diag_value(self) -> float:
        return self.output_scale

    # Hyperparameter order: lengthscale, then output_scale (top level only).
    def shape_log_params(self) -> list[float]:
        return [math.log(self.lengthscale)]

    def shape_param_names(self) -> list[str]:
        return ["lengthscale"]

    def with_shape_log_params(self, vals: list[float]) -> "RBFKernel":
        return replace(self, lengthscale=math.exp(vals[0]))

    def shape_grads(self, dt: np.ndarray, value: np.ndarray) -> list[np.ndarray]:
        # d k / d log l = k * dt^2 / l^2
        return [value * (dt * dt) / self.lengthscale**2]


@dataclass(frozen=True)
class PeriodicKernel:
    """Periodic kernel s2 * exp(-2 sin^2(pi dt / p) / l^2)."""

    lengthscale: float
    period: float
    output_scale: float = 1.0

    def validate(self, top: bool = True) -> None:
        if not (self.lengthscale > 0 and np.isfinite(self.lengthscale)):
            raise InvalidInputError(f"periodic lengthscale must be > 0, got {self.lengthscale}")
        if not (self.period > 0 and np.isfinite(self.period)):
            raise InvalidInputError(f"period must be > 0, got {self.period}")
        if not (self.output_scale >= 0 and np.isfinite(self.output_scale)):
            raise InvalidInputError(f"output_scale must be >= 0, got {self.output_scale}")
        if not top and self.output_scale != 1.0:
            raise InvalidInputError("child kernels must have output_scale 1.0")

    def value(self, dt: np.ndarray) -> np.ndarray:
        s = np.sin(np.pi * dt / self.period)
        return self.output_scale * np.exp(-2.0 * s * s / self.lengthscale**2)

    def diag_value(self) -> float:
        return self.output_scale

    def shape_log_params(self) -> list[float]:
        return [math.log(self.lengthscale), math.log(self.period)]

    def shape_param_names(self) -> list[str]:
        return ["lengthscale", "period"]

    def with_shape_log_params(self, vals: list[float]) -> "PeriodicKernel":
        return replace(self, lengthscale=math.exp(vals[0]), period=math.exp(vals[1]))

    def shape_grads(self, dt: np.ndarray, value: np.ndarray) -> list[np.ndarray]:
        u = np.pi * dt / self.period
        s = np.sin(u)
        # d k / d log l = k * 4 sin^2(u) / l^2
        g_l = value * 4.0 * s * s / self.lengthscale**2
        # d k / d log p = k * (2 pi dt / (l^2 p)) * sin(2u)
        g_p = value * (2.0 * np.pi * dt / (self.lengthscale**2 * self.period)) * np.sin(2.0 * u)
        return [g_l, g_p]


@dataclass(frozen=True)
class ProductKernel:
    """Product of two kernels with a single top-level output scale.

    Children carry shape parameters only; their output scales are pinned
    to 1 so the overall scale stays identifiable.
    """

    first: "Kernel"
    second: "Kernel"
    output_scale: float = 1.0

    def validate(self, top: bool = True) -> None:
        if not (self.output_scale >= 0 and np.isfinite(self.output_scale)):
            raise InvalidInputError(f"output_scale must be >= 0, got {self.output_scale}")
        if not top and self.output_scale != 1.0:
            raise InvalidInputError("child kernels must have output_scale 1.0")
        if isinstance(self.first, ProductKernel) or isinstance(self.second, ProductKernel):
            raise InvalidInputError("nested product kernels are not supported")
        self.first.validate(top=False)
        self.second.validate(top=False)

    def value(self, dt: np.ndarray) -> np.ndarray:
        return self.output_scale * self.first.value(dt) * self.second.value(dt)

    def diag_value(self) -> float:
        return self.output_scale * self.first.diag_value() * self.second.diag_value()

    def shape_log_params(self) -> list[float]:
        return self.first.shape_log_params() + self.second.shape_log_params()

    def shape_param_names(self) -> list[str]:
        return (["a." + n for n in self.first.shape_param_names()]
                + ["b." + n for n in self.second.shape_param_names()])

    def with_shape_log_params(self, vals: list[float]) -> "ProductKernel":
        na = len(self.first.shape_log_params())
        return replace(
            self,
            first=self.first.with_shape_log_params(vals[:na]),
            second=self.second.with_shape_log_params(vals[na:]),
        )

    def shape_grads(self, dt: np.ndarray, value: np.ndarray) -> list[np.ndarray]:
        va = self.first.value(dt)
        vb = self.second.value(dt)
        grads = [self.output_scale * g * vb for g in self.first.shape_grads(dt, va)]
        grads += [self.output_scale * va * g for g in self.second.shape_grads(dt, vb)]
        return grads


Kernel = RBFKernel | PeriodicKernel | ProductKernel


def _kernel_log_params(kernel: Kernel) -> np.ndarray:
    """Trainable kernel parameters: shape parameters, then log output scale."""
    if kernel.output_scale <= 0:
        raise InvalidInputError("output_scale must be > 0 to train in log space")
    return np.array(kernel.shape_log_params() + [math.log(kernel.output_scale)])


def _kernel_with_log_params(kernel: Kernel, vals: np.ndarray) -> Kernel:
    shaped = kernel.with_shape_log_params(list(vals[:-1]))
    return replace(shaped, output_scale=math.exp(vals[-1]))


def kernel_param_names(kernel: Kernel, include_noise: bool = True) -> list[str]:
    """Names aligned with the gradient/parameter vector ordering."""
    names = kernel.shape_param_names() + ["output_scale"]
    if include_noise:
        names.append("noise_var")
    return names


def kernel_matrix(kernel: Kernel, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    dt = np.subtract.outer(np.asarray(ta, float), np.asarray(tb, float))
    return kernel.value(dt)


# --- training data and gram matrix -------------------------------------------


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


def gram_matrix(
    kernel: Kernel, t: np.ndarray, noise_var: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Noise-augmented gram matrix and its lower Cholesky factor.

    Returns ``(K, L, jitter)`` where ``K = kernel(t, t) + noise_var I +
    jitter I``.  Jitter starts at ``1e-6 * trace / n`` and escalates
    tenfold, at most three times, when the factorization fails; after that
    a :class:`NumericalError` is raised.
    """
    t = np.asarray(t, dtype=float).ravel()
    n = t.shape[0]
    base = kernel_matrix(kernel, t, t) + noise_var * np.eye(n)
    base_jitter = 1e-6 * float(np.trace(base)) / n
    jitter = base_jitter
    for _ in range(4):
        K = base + jitter * np.eye(n)
        try:
            L = cholesky(K, lower=True)
            return K, L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"gram matrix not positive definite after jitter escalation to {jitter / 10.0:g}")


# --- log marginal likelihood and gradient ------------------------------------


def log_marginal_likelihood(data: GPTrainingSet, kernel: Kernel) -> float:
    """Exact LML: -1/2 y' K^-1 y - 1/2 log|K| - n/2 log(2 pi)."""
    kernel.validate()
    _, L, _ = gram_matrix(kernel, data.t, data.noise_var)
    alpha = cho_solve((L, True), data.y)
    return float(
        -0.5 * data.y @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * data.n * LOG_2PI
    )


def lml_gradient(
    data: GPTrainingSet, kernel: Kernel, include_noise: bool = True
) -> np.ndarray:
    """Gradient of the LML over log hyperparameters.

    Component order: kernel shape parameters, log output scale, then (when
    ``include_noise``) log noise variance.  Each component is
    ``1/2 a' dK a - 1/2 tr(K^-1 dK)`` with ``a = K^-1 y`` and ``dK`` the
    gram derivative for that log parameter.
    """
    kernel.validate()
    t = data.t
    n = data.n
    _, L, jitter = gram_matrix(kernel, t, data.noise_var)
    alpha = cho_solve((L, True), data.y)
    K_inv = cho_solve((L, True), np.eye(n))

    dt = np.subtract.outer(t, t)
    value = kernel.value(dt)
    grads = kernel.shape_grads(dt, value)
    # The stabilizing jitter tracks the gram trace, so it moves with the
    # scale parameters; fold its derivative in or finite differences of
    # the implemented likelihood disagree at the 1e-5 level.
    diag = kernel.diag_value()
    jitter_rate = jitter / (diag + data.noise_var)
    eye = np.eye(n)
    grads.append(value + jitter_rate * diag * eye)  # d K / d log s2
    if include_noise:
        grads.append((1.0 + jitter_rate) * data.noise_var * eye)

    out = np.empty(len(grads))
    for i, dK in enumerate(grads):
        out[i] = 0.5 * (alpha @ dK @ alpha) - 0.5 * float(np.sum(K_inv * dK))
    return out


# --- training -----------------------------------------------------------------


@dataclass
class TrainConfig:
    """Gradient-ascent budget for hyperparameter search."""

    max_iters: int = 50
    learning_rate: float = 0.1
    tolerance: float = 1e-3      # stop when the gradient 2-norm drops below
    train_noise: bool = True
    max_halvings: int = 25
    freeze: tuple[str, ...] = ()   # parameter names held at their init values

    def validate(self) -> None:
        if self.max_iters < 0 or self.learning_rate <= 0 or self.tolerance < 0:
            raise InvalidInputError("bad training configuration")


@dataclass
class TrainedGP:
    """A fitted zero-mean GP: kernel, noise, and cached factorization."""

    kernel: Kernel
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


def train(data: GPTrainingSet, init: Kernel, cfg: TrainConfig | None = None) -> TrainedGP:
    """Fit hyperparameters by gradient ascent on the LML in log space.

    Step-halving line search: a step is accepted only if it strictly
    improves the LML, so the accepted trace is non-decreasing and the
    result is never worse than the initialization.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    init.validate()

    def unpack(theta: np.ndarray) -> tuple[Kernel, float]:
        if cfg.train_noise:
            return _kernel_with_log_params(init, theta[:-1]), math.exp(theta[-1])
        return _kernel_with_log_params(init, theta), data.noise_var

    def lml_at(theta: np.ndarray) -> float:
        # A candidate whose parameters over/underflow exp() or break the
        # factorization is simply a rejected step; the line search shrinks it.
        try:
            kern, noise = unpack(theta)
            d = GPTrainingSet(data.t, data.y, noise)
            value = log_marginal_likelihood(d, kern)
        except (NumericalError, OverflowError, InvalidInputError):
            return -math.inf
        return value if math.isfinite(value) else -math.inf

    theta = _kernel_log_params(init)
    if cfg.train_noise:
        theta = np.append(theta, math.log(data.noise_var))
    names = kernel_param_names(init, include_noise=cfg.train_noise)
    unknown = set(cfg.freeze) - set(names)
    if unknown:
        raise InvalidInputError(f"cannot freeze unknown parameters {sorted(unknown)}")
    mask = np.array([0.0 if nm in cfg.freeze else 1.0 for nm in names])

    current = lml_at(theta)
    if not math.isfinite(current):
        raise InvalidInputError("log marginal likelihood is not finite at the initialization")

    trace = [current]
    lr = cfg.learning_rate
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        kern, noise = unpack(theta)
        g = mask * lml_gradient(GPTrainingSet(data.t, data.y, noise), kern,
                                include_noise=cfg.train_noise)
        if float(np.linalg.norm(g)) < cfg.tolerance:
            converged = True
            iters -= 1
            break
        step = lr
        accepted = False
        for _ in range(cfg.max_halvings):
            candidate = theta + step * g
            value = lml_at(candidate)
            if value > current:
                theta = candidate
                current = value
                trace.append(value)
                lr = min(step * 1.5, 10.0)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    else:
        iters = cfg.max_iters

    kern, noise = unpack(theta)
    _, L, jitter = gram_matrix(kern, data.t, noise)
    alpha = cho_solve((L, True), data.y)
    return TrainedGP(
        kernel=kern,
        t=data.t.copy(),
        y=data.y.copy(),
        noise_var=noise,
        L=L,
        alpha=alpha,
        jitter=jitter,
        lml=current,
        lml_trace=trace,
        converged=converged,
        n_iters=iters,
    )


# --- prediction ----------------------------------------------------------------


@dataclass(frozen=True)
class Forecast:
    """Posterior mean and standard deviation at a single query time."""

    mean: float
    std: float


def predict_batch(gp: TrainedGP, t_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean/std arrays at the query times.

    mean = k*' K^-1 y; var = k(t*, t*) + noise - k*' K^-1 k*, floored at
    zero before the square root.
    """
    ts = np.asarray(t_star, dtype=float).ravel()
    k_star = kernel_matrix(gp.kernel, gp.t, ts)           # (n, m)
    mean = k_star.T @ gp.alpha
    v = solve_triangular(gp.L, k_star, lower=True)        # L v = k*
    var = gp.kernel.diag_value() + gp.noise_var - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    return mean, np.sqrt(var)


def predict(gp: TrainedGP, t_star: float) -> Forecast:
    """Posterior at one query time (see :func:`predict_batch`)."""
    mean, std = predict_batch(gp, np.array([t_star]))
    return Forecast(mean=float(mean[0]), std=float(std[0]))


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
