"""Gaussian process regression: the kernel, likelihood, training, prediction."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from amodcc.errors import InvalidInputError, NumericalError
from amodcc.gp import (
    _FLUSH,
    PARAM_NAMES,
    _gaps,
    GPTrainingSet,
    LocallyPeriodicKernel,
    TrainConfig,
    gaussian_quantile,
    gram_matrix,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
    predict_batch,
    standard_normal_quantile,
    train,
)
import amodcc.gp as gp
from amodcc.sim import DAY, DemandGrid, benchmark_scenario

LOG_2PI = math.log(2.0 * math.pi)


def random_dataset(rng, n, noise_var=0.05):
    t = np.sort(rng.uniform(0.0, 48.0, size=n))
    y = np.sin(t / 3.0) + 0.1 * rng.normal(size=n)
    return GPTrainingSet(t, y, noise_var)


def random_kernel(rng):
    return LocallyPeriodicKernel(lengthscale=rng.uniform(1.0, 8.0),
                                 periodic_lengthscale=rng.uniform(0.5, 3.0),
                                 period=rng.uniform(6.0, 30.0),
                                 output_scale=rng.uniform(0.3, 2.0))


def smooth_kernel(lengthscale, output_scale=1.0):
    """A kernel whose periodic factor is nearly flat over tens of hours."""
    return LocallyPeriodicKernel(lengthscale=lengthscale, periodic_lengthscale=50.0,
                                 period=1000.0, output_scale=output_scale)


class Indefinite(LocallyPeriodicKernel):
    """Takes 2e-5 of the output scale off the diagonal: on smooth inputs
    the gram's factorization escalates the jitter twice."""

    def value(self, dt):
        return super().value(dt) - 2e-5 * self.output_scale * (dt == 0)


def uniform_datasets(rng):
    """Fits on uniform grids, where the gram is Toeplitz: the bank's two
    fit shapes (144 points at 0.5 h, 96 at 0.25 h), the smallest grids,
    and the wide start (96 h envelope, periodic lengthscale 1), once with
    its jitter escalated."""
    wide = dict(lengthscale=96.0, periodic_lengthscale=1.0, period=24.0, output_scale=1.3)
    cases = [(144, 0.5, random_kernel(rng), 0.1), (96, 0.25, random_kernel(rng), 0.1),
             (1, 0.5, random_kernel(rng), 0.1), (2, 0.5, random_kernel(rng), 0.1),
             (144, 0.5, LocallyPeriodicKernel(**wide), 0.13),
             (144, 0.5, Indefinite(**wide), 1e-5)]
    for n, step, kernel, noise in cases:
        t = -n * step + step * (np.arange(n) + 0.5)
        y = np.sin(2.0 * np.pi * t / 24.0) + math.sqrt(noise) * rng.normal(size=n)
        yield GPTrainingSet(t, y, noise), kernel


def fd_gradient(data, kernel, include_noise, h=1e-6):
    """Central finite differences of the LML over log parameters."""
    shape = kernel.log_params()
    theta = np.concatenate([shape, [math.log(data.noise_var)]]) \
        if include_noise else np.asarray(shape)

    def lml_at(vec):
        kern = kernel.with_log_params(vec)
        d = GPTrainingSet(data.t, data.y, math.exp(vec[-1])) if include_noise else data
        return log_marginal_likelihood(d, kern)

    out = np.empty(theta.shape[0])
    for i in range(theta.shape[0]):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (lml_at(up) - lml_at(dn)) / (2.0 * h)
    return out


def dense_gradient(data, k, K, jitter):
    """1/2 tr(W dK) with W = a a' - K^-1 from a dense inverse of the gram
    ``K``, for every log parameter; dK carries the jitter's derivative as
    the implementation does."""
    inv = np.linalg.inv(K)
    a = inv @ data.y
    w = np.outer(a, a) - inv
    dt = np.subtract.outer(data.t, data.t)
    eye = np.eye(data.n)
    rate = jitter / (k.diag_value() + data.noise_var)
    dks = k.grads(dt) + [k.value(dt) + rate * k.diag_value() * eye,
                         (1.0 + rate) * data.noise_var * eye]
    return np.array([0.5 * np.sum(w * dk) for dk in dks])


def dense_reference(data, k):
    """LML and gradient from the gram over every pair |t_i - t_j|, with
    the implementation's jitter."""
    _, _, jitter = gram_matrix(k, data.t, data.noise_var)
    K = kernel_matrix(k, data.t, data.t) + (data.noise_var + jitter) * np.eye(data.n)
    _, logdet = np.linalg.slogdet(K)
    lml = -0.5 * data.y @ np.linalg.solve(K, data.y) - 0.5 * logdet - 0.5 * data.n * LOG_2PI
    return lml, dense_gradient(data, k, K, jitter)


def hour_axis(seconds, days):
    """The seed-0 benchmark's training hour axis on a window of ``days``
    in steps of ``seconds``."""
    sc = benchmark_scenario(0, history_days=days, sim_days=0.25)
    grid = DemandGrid(sc.trips, sc.network, sc.sim_start - days * DAY, seconds,
                      int(round(days * DAY / seconds)))
    return grid.midpoint_hours(sc.sim_start)


class TestKernels:
    def test_rbf_value(self):
        # A lag of whole periods leaves only the RBF envelope.
        k = LocallyPeriodicKernel(lengthscale=2.0, periodic_lengthscale=1.5, period=4.0,
                                  output_scale=3.0)
        assert kernel_matrix(k, np.array([0.0]), np.array([4.0]))[0, 0] == \
            pytest.approx(3.0 * math.exp(-16.0 / 8.0))

    def test_periodic_value(self):
        # Under a wide envelope a full period apart is almost zero lag.
        k = LocallyPeriodicKernel(lengthscale=1e6, periodic_lengthscale=1.5, period=24.0,
                                  output_scale=2.0)
        v0 = kernel_matrix(k, np.array([0.0]), np.array([0.0]))[0, 0]
        v24 = kernel_matrix(k, np.array([0.0]), np.array([24.0]))[0, 0]
        assert v24 == pytest.approx(v0)
        assert v0 == pytest.approx(2.0)

    def test_value_matches_closed_form(self):
        k = LocallyPeriodicKernel(lengthscale=2.0, periodic_lengthscale=1.5, period=24.0,
                                  output_scale=3.0)
        for dt in (0.0, 4.0, 24.0, 30.0):
            want = 3.0 * math.exp(-dt * dt / 8.0) \
                * math.exp(-2.0 * math.sin(math.pi * dt / 24.0) ** 2 / 1.5 ** 2)
            got = kernel_matrix(k, np.array([0.0]), np.array([dt]))[0, 0]
            assert got == pytest.approx(want, rel=1e-14)

    def test_diagonal_is_the_output_scale(self):
        k = LocallyPeriodicKernel(lengthscale=2.0, periodic_lengthscale=1.0, period=24.0,
                                  output_scale=5.0)
        assert k.diag_value() == 5.0
        assert kernel_matrix(k, np.array([7.0]), np.array([7.0]))[0, 0] == 5.0

    def test_invalid_parameters_rejected(self):
        for bad in (dict(lengthscale=-1.0), dict(periodic_lengthscale=0.0),
                    dict(period=0.0), dict(period=math.inf),
                    dict(output_scale=-1.0), dict(output_scale=math.nan)):
            kw = dict(lengthscale=1.0, periodic_lengthscale=1.0, period=24.0) | bad
            with pytest.raises(InvalidInputError, match=next(iter(bad))):
                LocallyPeriodicKernel(**kw)
        with pytest.raises(InvalidInputError, match="log space"):
            smooth_kernel(1.0, output_scale=0.0).log_params()

    def test_log_param_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            k = random_kernel(rng)
            back = k.with_log_params(k.log_params())
            assert np.allclose(back.log_params(), k.log_params())
        assert len(k.log_params()) == len(PARAM_NAMES)


class TestLikelihood:
    def test_single_point_closed_form(self):
        k = smooth_kernel(1.0, 2.0)
        data = GPTrainingSet([3.0], [1.5], noise_var=0.5)
        var = 2.0 + 0.5
        # jitter is part of the implementation's matrix; fold it in
        K, _, jitter = gram_matrix(k, data.t, data.noise_var)
        var += jitter
        want = -0.5 * 1.5 ** 2 / var - 0.5 * math.log(var) - 0.5 * LOG_2PI
        assert log_marginal_likelihood(data, k) == pytest.approx(want, rel=1e-12)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            k = random_kernel(rng)
            data = random_dataset(rng, 12)
            K, _, _ = gram_matrix(k, data.t, data.noise_var)
            sign, logdet = np.linalg.slogdet(K)
            assert sign > 0
            want = (-0.5 * data.y @ np.linalg.solve(K, data.y)
                    - 0.5 * logdet - 0.5 * data.n * LOG_2PI)
            assert log_marginal_likelihood(data, k) == pytest.approx(want, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(12):
            k = random_kernel(rng)
            cases.append((random_dataset(rng, rng.integers(5, 20)), k))
        for data, k in cases + list(uniform_datasets(rng)):
            for include_noise in (False, True):
                got = lml_gradient(data, k, include_noise=include_noise)
                want = fd_gradient(data, k, include_noise)
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert err.max() < 1e-5, (data.n, include_noise, got, want)

    def test_uniform_grid_gradient_matches_dense_trace(self):
        # 1/2 tr(W dK) with W = a a' - K^-1 from a dense inverse, for every
        # log parameter; dK carries the jitter's derivative as the
        # implementation does.
        rng = np.random.default_rng(12)
        escalated = 0
        for data, k in uniform_datasets(rng):
            assert _gaps(data.t).shape == (data.n,)
            K, _, jitter = gram_matrix(k, data.t, data.noise_var)
            escalated += jitter > 2e-6 * (k.output_scale + data.noise_var)
            want = dense_gradient(data, k, K, jitter)
            for include_noise in (False, True):
                got = lml_gradient(data, k, include_noise=include_noise)
                assert got == pytest.approx(want[:got.shape[0]], rel=1e-8, abs=1e-8), \
                    (data.n, include_noise)
        assert escalated == 1


class TestGram:
    def test_jitter_escalates_on_rank_deficiency(self):
        # Duplicate inputs with near-zero noise make the kernel block
        # singular; the factorization must still come back.
        k = smooth_kernel(1.0, 1.0)
        t = np.array([1.0, 1.0, 1.0, 2.0])
        K, L, jitter = gram_matrix(k, t, noise_var=1e-300)
        assert np.all(np.isfinite(L))
        assert jitter > 0

    def test_jitter_failure_raises(self):
        class Hostile(LocallyPeriodicKernel):
            def value(self, dt):
                return np.full_like(dt, -1.0)

        with pytest.raises(NumericalError):
            gram_matrix(Hostile(lengthscale=1.0, periodic_lengthscale=1.0, period=24.0),
                        np.arange(4.0), 1e-300)


def subnormals(a):
    return int(np.count_nonzero((a != 0.0) & (np.abs(a) < np.finfo(float).tiny)))


class TestFlush:
    """Kernel values below ``_FLUSH`` of the output scale are exact zeros in
    the gram matrix and in k*, so LAPACK never meets subnormal floats."""

    # The bank's 3-day, 900 s hour axis, with a 1.5 h envelope.
    t = (np.arange(288) + 0.5) * 0.25 - 72.0
    kernel = LocallyPeriodicKernel(lengthscale=1.5, periodic_lengthscale=3.0, period=24.0,
                                   output_scale=2.0)

    def test_short_envelope_gram_has_no_subnormal_entry(self):
        assert subnormals(kernel_matrix(self.kernel, self.t, self.t)) > 0
        K, _, _ = gram_matrix(self.kernel, self.t, 0.5)
        assert subnormals(K) == 0

    def test_matches_the_unflushed_dense_reference(self):
        rng = np.random.default_rng(17)
        y = np.sin(2.0 * np.pi * self.t / 24.0) + rng.normal(size=self.t.size)
        data = GPTrainingSet(self.t, y, noise_var=0.5)
        _, _, jitter = gram_matrix(self.kernel, self.t, data.noise_var)
        K = kernel_matrix(self.kernel, self.t, self.t) \
            + (data.noise_var + jitter) * np.eye(self.t.size)
        alpha = np.linalg.solve(K, y)
        _, logdet = np.linalg.slogdet(K)
        want = -0.5 * y @ alpha - 0.5 * logdet - 0.5 * y.size * LOG_2PI
        assert log_marginal_likelihood(data, self.kernel) == pytest.approx(want, rel=1e-12)
        fit = train(data, self.kernel, TrainConfig(max_iters=0))
        assert fit.alpha == pytest.approx(alpha, rel=1e-12, abs=1e-12 * np.abs(alpha).max())

        t_star = np.array([-80.0, -72.3, -40.1, -0.2, 0.4, 6.0])
        k_star = kernel_matrix(self.kernel, self.t, t_star)
        assert subnormals(k_star) > 0
        mean, std = predict_batch(fit, t_star)
        var = (self.kernel.output_scale + data.noise_var
               - np.sum(k_star * np.linalg.solve(K, k_star), axis=0))
        assert mean == pytest.approx(k_star.T @ alpha, rel=1e-12, abs=1e-12 * np.abs(mean).max())
        assert std == pytest.approx(np.sqrt(var), rel=1e-12)

    def test_value_just_above_the_cutoff_is_kept(self):
        # Bisect to adjacent gaps whose kernel values straddle the cutoff.
        k = smooth_kernel(1.0, 2.0)
        cutoff = _FLUSH * k.output_scale
        above, below = 20.0, 23.0
        while np.nextafter(above, below) != below:
            mid = 0.5 * (above + below)
            if k.value(np.array(mid)) >= cutoff:
                above = mid
            else:
                below = mid
        kept, flushed = float(k.value(np.array(above))), float(k.value(np.array(below)))
        assert kept >= cutoff > flushed > 0.0
        assert gram_matrix(k, np.array([0.0, above]), 0.1)[0][0, 1] == kept
        assert gram_matrix(k, np.array([0.0, below]), 0.1)[0][0, 1] == 0.0
        fit = train(GPTrainingSet([0.0], [1.0], 0.1), k, TrainConfig(max_iters=0))
        mean, _ = predict_batch(fit, np.array([above, below]))
        assert mean[0] == kept * fit.alpha[0] != 0.0
        assert mean[1] == 0.0


class TestGridDetection:
    """A grid is uniform where each step is the first to within a few ulps
    of max|t|: its gaps are then the n lags ``t - t[0]``, and only there
    does the gradient take the Toeplitz path.  Any other times take the
    dense gaps |t_i - t_j|."""

    def test_benchmark_hour_axis_takes_the_lag_path(self):
        t = hour_axis(900.0, 3.0)
        for stride in (1, 2):
            gaps = _gaps(t[::stride])
            assert gaps.shape == (288 // stride,)
            assert np.array_equal(gaps, t[::stride] - t[0])

    def test_repeated_times_are_not_uniform(self):
        for t in (np.array([0.0, 0.5, 0.5, 1.0]), np.array([2.0, 2.0])):
            assert np.array_equal(_gaps(t), np.abs(np.subtract.outer(t, t)))

    def test_one_ulp_off_takes_the_lag_path_and_matches_the_dense_formula(self):
        t = 0.5 * np.arange(144.0) - 71.75
        moved = t.copy()
        moved[60] = np.nextafter(moved[60], np.inf)
        assert _gaps(t).shape == _gaps(moved).shape == (144,)
        rng = np.random.default_rng(6)
        y = rng.normal(size=t.size)
        k = random_kernel(rng)
        data = GPTrainingSet(moved, y, 0.1)
        lml, grad = dense_reference(data, k)
        assert log_marginal_likelihood(data, k) == pytest.approx(lml, rel=1e-9)
        for include_noise in (False, True):
            got = lml_gradient(data, k, include_noise)
            assert got == pytest.approx(grad[:got.shape[0]], rel=1e-9, abs=1e-9)
            want = lml_gradient(GPTrainingSet(t, y, 0.1), k, include_noise)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_short_step_hour_axes_are_uniform(self, monkeypatch):
        # 600 s and 300 s steps (1/6 h and 1/12 h) are not binary
        # fractions: equal lags differ in their last bits, by at most one
        # ulp of max|t|.  They still take the lag path, whose gradient
        # forms no inverse and matches the dense formula.
        for seconds in (600.0, 300.0):
            for days in (3.0, 5.0):
                for stride in (1, 2, 3):
                    t = hour_axis(seconds, days)[::stride]
                    step = np.diff(t)
                    assert np.abs(step - step[0]).max() <= np.spacing(np.abs(t).max())
                    assert np.array_equal(_gaps(t), t - t[0])
        t = hour_axis(600.0, 3.0)
        rng = np.random.default_rng(2)
        data = GPTrainingSet(t, np.sin(2.0 * np.pi * t / 24.0) + rng.normal(size=t.size), 0.3)
        k = random_kernel(rng)
        _, want = dense_reference(data, k)

        def no_inverse(*args, **kwargs):
            raise AssertionError("the lag path forms no inverse")

        monkeypatch.setattr(gp, "dpotri", no_inverse)
        assert lml_gradient(data, k) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_irregular_times_match_finite_differences_and_the_dense_formulas(self):
        # Irregular, repeated and decreasing times build their gram from
        # the dense gaps; the LML and gradient match the dense formulas
        # and finite differences of the LML.
        rng = np.random.default_rng(19)
        irregular = np.sort(rng.uniform(-48.0, 0.0, size=30))
        for t in (irregular, np.repeat(irregular[:10], 2), irregular[::-1],
                  0.5 * np.arange(20.0)[::-1]):
            data = GPTrainingSet(t, np.sin(t / 3.0) + 0.3 * rng.normal(size=t.size), 0.2)
            k = random_kernel(rng)
            assert np.array_equal(_gaps(t), np.abs(np.subtract.outer(t, t)))
            lml, grad = dense_reference(data, k)
            assert log_marginal_likelihood(data, k) == pytest.approx(lml, rel=1e-10)
            got = lml_gradient(data, k)
            assert got == pytest.approx(grad, rel=1e-8, abs=1e-8)
            err = np.abs(got - fd_gradient(data, k, True)) / np.maximum(1.0, np.abs(grad))
            assert err.max() < 1e-5, (t.size, got, grad)


class TestTraining:
    def test_training_never_worse_than_init(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 25)
        init = smooth_kernel(0.7, 0.5)
        before = log_marginal_likelihood(data, init)
        fit = train(data, init, TrainConfig(max_iters=25))
        assert fit.lml >= before - 1e-12
        assert fit.lml_trace == sorted(fit.lml_trace)

    def test_training_improves_bad_init(self):
        rng = np.random.default_rng(13)
        t = np.sort(rng.uniform(0, 24, size=40))
        y = 2.0 * np.sin(t) + 0.05 * rng.normal(size=40)
        data = GPTrainingSet(t, y, 0.5)
        init = smooth_kernel(10.0, 0.1)
        fit = train(data, init, TrainConfig(max_iters=40))
        assert fit.lml > log_marginal_likelihood(data, init) + 1.0

    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 10)
        init = smooth_kernel(2.0, 1.0)
        fit = train(data, init, TrainConfig(max_iters=0))
        assert fit.n_iters == 0
        assert fit.lml == pytest.approx(log_marginal_likelihood(data, init))

    def test_jitter_escalates_only_where_the_fit_needs_it(self):
        # Smooth inputs leave the gram almost singular; the hostile fit's
        # kernel takes 2e-5 of its scale off the diagonal, so its
        # factorization escalates the jitter twice while the calm fit's
        # never does.  Both still take steps.
        rng = np.random.default_rng(9)
        t = np.arange(16.0) / 4.0
        cfg = TrainConfig(max_iters=6)
        calm = train(GPTrainingSet(t, np.sin(t) + 0.1 * rng.normal(size=t.size), 0.1),
                     smooth_kernel(2.0), cfg)
        hostile = train(GPTrainingSet(t, np.cos(t), 1e-12),
                        Indefinite(lengthscale=2.0, periodic_lengthscale=50.0, period=1000.0),
                        cfg)
        assert calm.jitter == pytest.approx(1e-6 * (calm.kernel.output_scale + calm.noise_var))
        assert hostile.jitter > 50e-6 * hostile.kernel.output_scale
        assert calm.n_iters > 0 and hostile.n_iters > 0

    def test_noise_can_be_frozen(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 15, noise_var=0.123)
        fit = train(data, smooth_kernel(1.0), TrainConfig(max_iters=10, freeze=("noise_var",)))
        assert fit.noise_var == pytest.approx(0.123)


class TestPrediction:
    def test_matches_dense_posterior(self):
        rng = np.random.default_rng(21)
        k = random_kernel(rng)
        data = random_dataset(rng, 15)
        fit = train(data, k, TrainConfig(max_iters=5))
        K, _, jitter = gram_matrix(fit.kernel, fit.t, fit.noise_var)
        t_star = np.array([1.0, 7.5, 40.0])
        mean, std = predict_batch(fit, t_star)
        for idx, ts in enumerate(t_star):
            ks = kernel_matrix(fit.kernel, np.array([ts]), fit.t)[0]
            want_mean = ks @ np.linalg.solve(K, fit.y)
            want_var = (fit.kernel.diag_value() + fit.noise_var
                        - ks @ np.linalg.solve(K, ks))
            assert mean[idx] == pytest.approx(want_mean, abs=1e-9)
            assert std[idx] ** 2 == pytest.approx(want_var, abs=1e-8)

    def test_gathered_kernel_equals_direct_evaluation_bit_for_bit(self):
        # predict_batch evaluates the kernel once per distinct gap and
        # gathers it; that must be exactly the kernel on every pair, for
        # query times on and off the training grid, repeated, and across
        # fits that share both grids.
        rng = np.random.default_rng(8)
        t = np.arange(0.25, 48.0, 0.5)
        t_star = np.concatenate([t[-6:] + 3.0, [48.1, 48.1, 50.0, -2.3], t[:3]])
        for _ in range(3):
            data = GPTrainingSet(t, rng.normal(size=t.size), noise_var=0.3)
            fit = train(data, random_kernel(rng), TrainConfig(max_iters=0))
            k_star = kernel_matrix(fit.kernel, fit.t, t_star)
            v = solve_triangular(fit.L, k_star, lower=True)
            var = fit.kernel.diag_value() + fit.noise_var - np.sum(v * v, axis=0)
            mean, std = predict_batch(fit, t_star)
            assert np.array_equal(mean, k_star.T @ fit.alpha)
            assert np.array_equal(std, np.sqrt(np.maximum(var, 0.0)))

    def test_near_interpolation_with_tiny_noise(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 10.0, 8)
        y = np.cos(t)
        data = GPTrainingSet(t, y, noise_var=1e-8)
        fit = train(data, smooth_kernel(2.0, 1.0),
                    TrainConfig(max_iters=0))
        mean, _ = predict_batch(fit, t)
        assert np.max(np.abs(mean - y)) < 1e-3

    def test_prior_reversion_far_from_data(self):
        data = GPTrainingSet([0.0, 1.0], [1.0, -1.0], noise_var=0.1)
        k = smooth_kernel(1.0, 2.0)
        fit = train(data, k, TrainConfig(max_iters=0))
        mean, std = predict_batch(fit, np.array([1_000.0]))
        assert mean[0] == pytest.approx(0.0, abs=1e-9)
        assert std[0] ** 2 == pytest.approx(2.0 + 0.1, abs=1e-6)

    def test_variance_shrinks_with_more_data(self):
        # Posterior variance at a fixed point never increases as
        # observations accumulate.
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            t = np.sort(rng.uniform(0.0, 20.0, size=n))
            y = rng.normal(size=n)
            k = smooth_kernel(float(rng.uniform(1.0, 4.0)))
            t_star = float(rng.uniform(0.0, 20.0))
            prev = math.inf
            for m in range(1, n + 1):
                data = GPTrainingSet(t[:m], y[:m], noise_var=0.25)
                fit = train(data, k, TrainConfig(max_iters=0))
                var = predict_batch(fit, np.array([t_star]))[1][0] ** 2
                assert var <= prev + 1e-8
                prev = var


class TestQuantile:
    def test_median_is_exact_zero(self):
        assert standard_normal_quantile(0.5) == 0.0

    def test_reference_values(self):
        assert standard_normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
        assert standard_normal_quantile(0.841344746) == pytest.approx(1.0, abs=1e-7)
        assert standard_normal_quantile(0.05) == pytest.approx(-1.644853627, abs=1e-8)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.35, 0.49):
            assert standard_normal_quantile(p) == pytest.approx(
                -standard_normal_quantile(1.0 - p), abs=1e-12)

    def test_monotone(self):
        ps = np.linspace(0.001, 0.999, 200)
        qs = standard_normal_quantile(ps)
        assert np.all(np.diff(qs) > 0)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidInputError):
                standard_normal_quantile(p)

    def test_gaussian_affine(self):
        z = standard_normal_quantile(0.8)
        assert gaussian_quantile(0.8, 3.0, 2.0) == pytest.approx(3.0 + 2.0 * z)
        assert gaussian_quantile(0.8, 3.0, 0.0) == 3.0
