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
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri
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


# --- training data and gap structure -------------------------------------------


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


@dataclass(frozen=True)
class _Gaps:
    """The distinct gaps |t_i - t_j| of one input vector.

    The kernel is stationary, so a gram matrix over ``t`` is the kernel
    evaluated once per gap and gathered through ``index``; on a
    regular grid that is n kernel values instead of n^2.
    """

    t: np.ndarray
    values: np.ndarray   # (G,)
    index: np.ndarray    # (n, n) positions in ``values``

    @classmethod
    def of(cls, t: np.ndarray) -> "_Gaps":
        t = np.asarray(t, dtype=float).ravel()
        values, index = np.unique(np.abs(np.subtract.outer(t, t)), return_inverse=True)
        return cls(t, values, index.reshape(t.shape[0], t.shape[0]))

    @property
    def n(self) -> int:
        return self.t.shape[0]

    def sums(self, m: np.ndarray) -> np.ndarray:
        """Sum of the entries of the (n, n) matrix ``m`` at each gap."""
        return np.bincount(self.index.ravel(), weights=m.ravel(), minlength=self.values.shape[0])


# --- batched factorization -------------------------------------------------------

# Working set of one (fits, n, n) stack; a batch is factored in pieces of
# this size, so its peak memory does not grow with the number of fits.
_CHUNK_BYTES = 16 << 20


def _chunks(items: list, n: int) -> list[list]:
    size = max(1, _CHUNK_BYTES // (8 * n * n))
    return [items[k:k + size] for k in range(0, len(items), size)]


def _cholesky(stack: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of the matrices of a stack marked ``ok``.

    Clears ``ok`` where a matrix has no factor.  A failure in the batched
    call only sends the stack through one call per matrix; each matrix
    gets the same factor either way.
    """
    if ok.all():
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            pass
    L = np.full_like(stack, np.nan)
    for b in np.flatnonzero(ok):
        try:
            L[b] = np.linalg.cholesky(stack[b])
        except np.linalg.LinAlgError:
            ok[b] = False
    return L


def _factor(gaps: _Gaps, kernels: list[LocallyPeriodicKernel], noise: np.ndarray):
    """Noise-augmented gram matrices of a stack of fits and their factors.

    Returns ``(K, L, jitter, ok)``.  Per fit, jitter starts at ``1e-6 *
    trace / n`` and escalates tenfold, at most three times, while that
    fit's factorization fails; ``ok`` is False where all four failed, and
    its ``jitter`` is the last one tried.
    """
    n = gaps.n
    d = np.arange(n)
    values = np.stack([k.value(gaps.values) for k in kernels])
    K = values[:, gaps.index]
    K[:, d, d] += noise[:, None]
    base = K[:, d, d]
    # Row by row: a reduction over axis 1 of the stack adds in an order
    # that depends on the stack's height.
    jitter = 1e-6 * np.array([row.sum() for row in base]) / n
    finite = np.isfinite(values).all(axis=1) & np.isfinite(base).all(axis=1)
    ok = finite.copy()
    K[:, d, d] = base + jitter[:, None]
    L = _cholesky(K, ok)
    for _ in range(3):
        todo = np.flatnonzero(finite & ~ok)
        if not todo.size:
            break
        jitter[todo] *= 10.0
        trial = K[todo]
        trial[:, d, d] = base[todo] + jitter[todo, None]
        again = np.ones(todo.size, dtype=bool)
        L[todo] = _cholesky(trial, again)
        K[todo], ok[todo] = trial, again
    return K, L, jitter, ok


def _solve(L: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """LML and ``alpha = K^-1 y`` from the lower factor of K."""
    # Through the upper factor L', a Fortran-ordered view: no copy.
    alpha = cho_solve((L.T, False), y, check_finite=False)
    lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * y.shape[0] * LOG_2PI)
    return lml, alpha


def _evaluate(gaps: _Gaps, ys: list[np.ndarray], candidates: list) -> list:
    """LML of each ``(kernel, noise)`` candidate over its targets.

    Returns ``(lml, L, alpha, jitter)`` per candidate, or None where the
    candidate is None, its factorization failed or the LML is not finite.
    """
    out: list = [None] * len(candidates)
    live = [k for k, c in enumerate(candidates) if c is not None]
    for part in _chunks(live, gaps.n):
        _, L, jitter, ok = _factor(gaps, [candidates[k][0] for k in part],
                                   np.array([candidates[k][1] for k in part]))
        for b, k in enumerate(part):
            if ok[b]:
                lml, alpha = _solve(L[b], ys[k])
                if math.isfinite(lml):
                    out[k] = (lml, L[b], alpha, float(jitter[b]))
    return out


def _gradients(gaps: _Gaps, candidates: list, factors: list,
               include_noise: bool) -> list[np.ndarray]:
    """LML gradients over log hyperparameters at factored candidates.

    Component order: kernel shape parameters, log output scale, then (when
    ``include_noise``) log noise variance.  Each component is ``1/2
    sum(W * dK)`` with ``W = a a' - K^-1``, ``a = K^-1 y`` and ``dK`` the
    gram derivative for that log parameter.  Off its diagonal terms, dK
    is a function of the gap, so the sum runs over the gap sums of W.
    """
    out = []
    for (kern, noise), (_, L, alpha, jitter) in zip(candidates, factors):
        # K^-1 from the factor, in its upper triangle (zeros below, as in
        # L').  The gaps are symmetric, so the gap sums of the symmetric
        # K^-1 are twice those of that triangle less its diagonal once.
        inv = dpotri(L.T, lower=0)[0]
        inv_tr = float(np.trace(inv))
        s = gaps.sums(np.outer(alpha, alpha) - 2.0 * inv)
        s[0] += inv_tr                                  # gap 0 holds the diagonal
        tr = float(alpha @ alpha) - inv_tr              # trace of W
        value = kern.value(gaps.values)
        comps = [g @ s for g in kern.grads(gaps.values)]
        # The stabilizing jitter tracks the gram trace, so it moves with the
        # scale parameters; fold its derivative in or finite differences of
        # the implemented likelihood disagree at the 1e-5 level.
        diag = kern.diag_value()
        rate = jitter / (diag + noise)
        comps.append(value @ s + rate * diag * tr)                 # log s2
        if include_noise:
            comps.append((1.0 + rate) * noise * tr)
        out.append(0.5 * np.array(comps))
    return out


def _shared_gaps(data: list[GPTrainingSet]) -> _Gaps:
    gaps = _Gaps.of(data[0].t)
    if any(not np.array_equal(d.t, gaps.t) for d in data):
        raise InvalidInputError("a batch of fits must share its inputs t")
    return gaps


def _one(kernel: LocallyPeriodicKernel, t: np.ndarray, noise_var: float):
    """Factor a single fit through the batch code; raise if it fails."""
    gaps = _Gaps.of(t)
    K, L, jitter, ok = _factor(gaps, [kernel], np.array([float(noise_var)]))
    if not ok[0]:
        raise NumericalError(
            f"gram matrix not positive definite after jitter escalation to {jitter[0]:g}")
    return gaps, K[0], L[0], float(jitter[0])


def gram_matrix(
    kernel: LocallyPeriodicKernel, t: np.ndarray, noise_var: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Noise-augmented gram matrix and its lower Cholesky factor.

    Returns ``(K, L, jitter)`` where ``K = kernel(t, t) + noise_var I +
    jitter I``.  Jitter starts at ``1e-6 * trace / n`` and escalates
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
    """Gradient of the LML over log hyperparameters (see :func:`_gradients`)."""
    gaps, _, L, jitter = _one(kernel, data.t, data.noise_var)
    lml, alpha = _solve(L, data.y)
    return _gradients(gaps, [(kernel, data.noise_var)], [(lml, L, alpha, jitter)],
                      include_noise)[0]


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


class _Fit:
    """One fit's search state while its batch advances in lockstep."""

    def __init__(self, data: GPTrainingSet, init: LocallyPeriodicKernel, cfg: TrainConfig):
        self.data = data
        self.init = init
        self.train_noise = cfg.train_noise
        theta = np.array(init.log_params())
        names = list(PARAM_NAMES)
        if cfg.train_noise:
            theta = np.append(theta, math.log(data.noise_var))
            names.append("noise_var")
        unknown = set(cfg.freeze) - set(names)
        if unknown:
            raise InvalidInputError(f"cannot freeze unknown parameters {sorted(unknown)}")
        self.mask = np.array([0.0 if nm in cfg.freeze else 1.0 for nm in names])
        self.theta = theta
        self.lr = cfg.learning_rate
        self.trace: list[float] = []
        self.converged = False
        self.iters = 0
        self.halvings = 0
        self.step = 0.0
        self.grad = np.zeros_like(theta)
        self.at_theta = None      # (kernel, noise) at theta
        self.factor = None        # (lml, L, alpha, jitter) at theta

    def candidate(self, theta: np.ndarray):
        """``(kernel, noise)`` at ``theta``, or None where the parameters
        over/underflow exp() or are invalid: a rejected step."""
        try:
            kern = self.init.with_log_params(theta)
            noise = math.exp(theta[-1]) if self.train_noise else self.data.noise_var
        except (OverflowError, InvalidInputError):
            return None
        return (kern, noise) if noise > 0 and math.isfinite(noise) else None

    def accept(self, theta: np.ndarray, cand, factor) -> None:
        lml, L, alpha, jitter = factor
        self.theta, self.at_theta = theta, cand
        self.factor = (lml, L.copy(), alpha, jitter)
        self.trace.append(lml)

    def result(self) -> TrainedGP:
        lml, L, alpha, jitter = self.factor
        kern, noise = self.at_theta
        return TrainedGP(kernel=kern, t=self.data.t.copy(), y=self.data.y.copy(),
                         noise_var=noise, L=L, alpha=alpha, jitter=jitter, lml=lml,
                         lml_trace=self.trace, converged=self.converged,
                         n_iters=self.iters)


def train_many(data: list[GPTrainingSet], inits: list[LocallyPeriodicKernel],
               cfg: TrainConfig | None = None) -> list[TrainedGP]:
    """Fit a batch of GPs that share their inputs ``t``, in lockstep.

    Each fit runs gradient ascent on its own LML in log space with a
    step-halving line search: a step is accepted only if it strictly
    improves the LML (then the next first step is ``min(1.5 step, 10)``),
    at most ``max_halvings`` tries per iteration, and a fit stops once its
    gradient 2-norm drops below ``tolerance``.  The accepted trace is
    non-decreasing, so a result is never worse than its initialization.

    Every round factors the pending candidates of all fits as one stack
    and takes the gradients of the fits that just moved from the factors
    of that step.  All arithmetic is per fit, so a fit's result does not
    depend on which other fits share its batch.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not data:
        return []
    gaps = _shared_gaps(data)
    fits = [_Fit(d, init, cfg) for d, init in zip(data, inits, strict=True)]
    cands = [f.candidate(f.theta) for f in fits]
    for f, cand, factor in zip(fits, cands, _evaluate(gaps, [d.y for d in data], cands)):
        if factor is None:
            raise InvalidInputError(
                "log marginal likelihood is not finite at the initialization")
        f.accept(f.theta, cand, factor)

    moved = fits if cfg.max_iters > 0 else []    # need a gradient at theta
    searching: list[_Fit] = []                   # need their next trial step
    while moved or searching:
        grads = _gradients(gaps, [f.at_theta for f in moved], [f.factor for f in moved],
                           cfg.train_noise)
        for f, g in zip(moved, grads):
            f.grad = f.mask * g
            if float(np.linalg.norm(f.grad)) < cfg.tolerance:
                f.converged = True
                continue
            f.iters += 1
            if cfg.max_halvings > 0:
                f.step, f.halvings = f.lr, 0
                searching.append(f)
        trials = [f.theta + f.step * f.grad for f in searching]
        cands = [f.candidate(theta) for f, theta in zip(searching, trials)]
        moved, still = [], []
        for f, theta, cand, factor in zip(searching, trials, cands,
                                          _evaluate(gaps, [f.data.y for f in searching], cands)):
            if factor is not None and factor[0] > f.factor[0]:
                f.accept(theta, cand, factor)
                f.lr = min(f.step * 1.5, 10.0)
                if f.iters < cfg.max_iters:
                    moved.append(f)
            else:
                f.step *= 0.5
                f.halvings += 1
                if f.halvings < cfg.max_halvings:
                    still.append(f)
        searching = still
    return [f.result() for f in fits]


def posteriors(data: list[GPTrainingSet],
               kernels: list[LocallyPeriodicKernel]) -> list[TrainedGP]:
    """Exact posteriors at given hyperparameters for fits that share ``t``.

    Nothing is searched: the kernels and noise variances are used as
    given, and each result reports ``converged=True, n_iters=0``.
    Raises :class:`NumericalError` where a gram matrix has no factor.
    """
    if not data:
        return []
    gaps = _shared_gaps(data)
    out = []
    for part in _chunks(list(range(len(data))), gaps.n):
        _, L, jitter, ok = _factor(gaps, [kernels[k] for k in part],
                                   np.array([data[k].noise_var for k in part]))
        for b, k in enumerate(part):
            if not ok[b]:
                raise NumericalError(
                    f"gram matrix not positive definite after jitter escalation "
                    f"to {jitter[b]:g}")
            lml, alpha = _solve(L[b], data[k].y)
            out.append(TrainedGP(kernel=kernels[k], t=data[k].t.copy(), y=data[k].y,
                                 noise_var=data[k].noise_var, L=L[b].copy(), alpha=alpha,
                                 jitter=float(jitter[b]), lml=lml, lml_trace=[lml],
                                 converged=True, n_iters=0))
    return out


def train(data: GPTrainingSet, init: LocallyPeriodicKernel,
          cfg: TrainConfig | None = None) -> TrainedGP:
    """Fit one GP's hyperparameters: a batch of one for :func:`train_many`."""
    return train_many([data], [init], cfg)[0]


# --- prediction ----------------------------------------------------------------


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
