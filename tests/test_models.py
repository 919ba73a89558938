import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from robustagg import models, numkit
from robustagg.errors import (
    DimensionError,
    NonFiniteSumError,
    NumericalError,
    SeparationError,
    SingularMatrixError,
)
from robustagg.models import (
    ModelKind,
    ModelSpec,
    Observations,
    criterion_eval,
    fit_local,
    fit_shards,
    sandwich_variance,
)

LINEAR2 = ModelSpec.linear(2)
LOGISTIC2 = ModelSpec.logistic(2)


def make_obs(y, X):
    return Observations(np.asarray(y, dtype=float), np.asarray(X, dtype=float))


def finite_diff_gradient(model, data, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        up, _, _ = criterion_eval(model, data, theta + e)
        dn, _, _ = criterion_eval(model, data, theta - e)
        out[j] = (up - dn) / (2 * h)
    return out


def finite_diff_hessian(model, data, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    out = np.zeros((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        _, gu, _ = criterion_eval(model, data, theta + e)
        _, gd, _ = criterion_eval(model, data, theta - e)
        out[:, j] = (gu - gd) / (2 * h)
    return (out + out.T) / 2


class TestCriterion:
    def test_linear_zero_case(self):
        data = make_obs([0.0], [[1.0, 0.0]])
        value, grad, _ = criterion_eval(LINEAR2, data, [0.0, 0.0])
        assert value == 0.0
        assert np.array_equal(grad, [0.0, 0.0])

    def test_linear_hand_derivatives(self):
        # m = -(y - x^T theta)^2 at y=1, x=(1,0), theta=0:
        # value -1, grad 2*(1,0), hessian -2*diag(1,0).
        data = make_obs([1.0], [[1.0, 0.0]])
        value, grad, hess = criterion_eval(LINEAR2, data, [0.0, 0.0])
        assert value == pytest.approx(-1.0)
        assert np.allclose(grad, [2.0, 0.0])
        assert np.allclose(hess, np.diag([-2.0, 0.0]))

    def test_logistic_hand_derivatives(self):
        # Bernoulli log-likelihood at theta=0: value log(1/2), grad (y-1/2)x.
        data = make_obs([1.0], [[1.0, 1.0]])
        value, grad, _ = criterion_eval(LOGISTIC2, data, [0.0, 0.0])
        assert value == pytest.approx(math.log(0.5))
        assert np.allclose(grad, [0.5, 0.5])

    @pytest.mark.parametrize("model", [LINEAR2, LOGISTIC2], ids=["linear", "logistic"])
    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((40, 2))
        if model.kind is ModelKind.LINEAR:
            y = X @ [1.0, -0.5] + rng.standard_normal(40)
        else:
            y = (rng.random(40) < expit(X @ [1.0, -0.5])).astype(float)
        data = make_obs(y, X)
        for _ in range(20):
            theta = rng.standard_normal(2)
            _, grad, _ = criterion_eval(model, data, theta)
            approx = finite_diff_gradient(model, data, theta)
            scale = max(np.abs(grad).max(), 1e-8)
            assert np.abs(grad - approx).max() <= 1e-6 * max(scale, 1.0)

    @pytest.mark.parametrize("model", [LINEAR2, LOGISTIC2], ids=["linear", "logistic"])
    def test_hessian_matches_finite_differences(self, model):
        rng = np.random.default_rng(29)
        X = rng.standard_normal((40, 2))
        if model.kind is ModelKind.LINEAR:
            y = X @ [1.0, -0.5] + rng.standard_normal(40)
        else:
            y = (rng.random(40) < expit(X @ [1.0, -0.5])).astype(float)
        data = make_obs(y, X)
        for _ in range(20):
            theta = rng.standard_normal(2)
            _, _, hess = criterion_eval(model, data, theta)
            approx = finite_diff_hessian(model, data, theta)
            scale = max(np.abs(hess).max(), 1.0)
            assert np.abs(hess - approx).max() <= 1e-5 * scale

    def test_logistic_concave_along_chords(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((60, 2))
        y = (rng.random(60) < expit(X @ [2.0, 1.0])).astype(float)
        data = make_obs(y, X)
        for _ in range(25):
            a, b = rng.standard_normal((2, 2)) * 2
            va, _, _ = criterion_eval(LOGISTIC2, data, a)
            vb, _, _ = criterion_eval(LOGISTIC2, data, b)
            for t in (0.25, 0.5, 0.75):
                vm, _, _ = criterion_eval(LOGISTIC2, data, (1 - t) * a + t * b)
                assert vm >= (1 - t) * va + t * vb - 1e-10

    def test_logistic_extreme_predictor_no_overflow(self):
        data = make_obs([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        value, grad, hess = criterion_eval(LOGISTIC2, data, [900.0, -900.0])
        assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()

    def test_dimension_mismatch(self):
        data = make_obs([1.0], [[1.0, 0.0]])
        with pytest.raises(DimensionError):
            criterion_eval(LINEAR2, data, [1.0, 2.0, 3.0])


class TestFitLocal:
    def test_linear_noiseless_interpolation(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((50, 2))
        data = make_obs(X @ [2.0, 1.0], X)
        fit = fit_local(LINEAR2, data)
        assert np.abs(fit.thetas[0] - [2.0, 1.0]).max() <= 1e-10

    def test_linear_matches_normal_equations(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((80, 2))
        y = X @ [0.3, -1.2] + rng.standard_normal(80)
        data = make_obs(y, X)
        fit = fit_local(LINEAR2, data)
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.abs(fit.thetas[0] - expected).max() <= 1e-10
        assert fit.grad_norms[0] <= 1e-10

    def test_linear_two_point_exact(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([2.0, 5.0])
        fit = fit_local(LINEAR2, make_obs(y, X))
        assert np.allclose(fit.thetas[0], [2.0, 3.0])

    def test_logistic_consistency_large_n(self):
        # Monte Carlo oracle: at n = 200000 the MLE sits within 0.05 of truth.
        rng = np.random.default_rng(43)
        n = 200_000
        X = rng.standard_normal((n, 2))
        y = (rng.random(n) < expit(X @ [2.0, 1.0])).astype(float)
        fit = fit_local(LOGISTIC2, make_obs(y, X))
        assert np.abs(fit.thetas[0] - [2.0, 1.0]).max() <= 0.05
        assert fit.grad_norms[0] <= 1e-10
        assert numkit.screen_positive_definite(fit.sigmas)[0][0]

    def test_logistic_single_class_raises(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SeparationError):
            fit_local(LOGISTIC2, make_obs([1.0, 1.0, 1.0], X))

    def test_logistic_separated_data_raises(self):
        # Perfectly separated responses: the MLE does not exist.
        x1 = np.linspace(-2, 2, 40)
        X = np.column_stack([x1, np.ones(40)])
        y = (x1 > 0).astype(float)
        with pytest.raises(SeparationError):
            fit_local(LOGISTIC2, make_obs(y, X))

    def test_too_few_observations(self):
        with pytest.raises(DimensionError):
            fit_local(LINEAR2, make_obs([1.0], [[1.0, 2.0]]))

    def test_iteration_cap_reports_last_iterate(self, monkeypatch):
        from robustagg.errors import NonConvergenceError

        rng = np.random.default_rng(61)
        X = rng.standard_normal((80, 2))
        y = (rng.random(80) < expit(X @ [2.0, 1.0])).astype(float)
        monkeypatch.setattr(models, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as excinfo:
            fit_local(LOGISTIC2, make_obs(y, X))
        assert excinfo.value.best is not None
        assert excinfo.value.residual > 0


class TestSandwich:
    def test_linear_reference_design_converges_to_identity(self):
        # X ~ N(0, I2), eps ~ N(0,1): U = 2I, V = 4I, so U^-1 V U^-1 = I.
        rng = np.random.default_rng(47)
        n = 100_000
        X = rng.standard_normal((n, 2))
        y = X @ [2.0, 1.0] + rng.standard_normal(n)
        data = make_obs(y, X)
        fit = fit_local(LINEAR2, data)
        sigma = sandwich_variance(LINEAR2, data, fit.thetas[0])
        assert np.abs(sigma - np.eye(2)).max() <= 0.05

    def test_exact_fit_degenerate_not_pd(self):
        # n = p interpolation: all residuals zero, V = 0, sandwich not PD.
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([2.0, 5.0])
        fit = fit_local(LINEAR2, make_obs(y, X))
        assert not numkit.screen_positive_definite(fit.sigmas)[0][0]
        assert np.linalg.eigvalsh(numkit.ensure_symmetric(fit.sigmas[0]))[0] <= 0.0

    def test_logistic_against_brute_force_expectation(self):
        # Oracle: U and V estimated by direct 1e6-draw expectations at the
        # true parameter, combined into U^-1 V U^-1.
        rng = np.random.default_rng(53)
        theta0 = np.array([2.0, 1.0])
        Xo = rng.standard_normal((1_000_000, 2))
        pio = expit(Xo @ theta0)
        w = pio * (1 - pio)
        U = np.einsum("i,ij,ik->jk", w, Xo, Xo) / Xo.shape[0]
        yo = (rng.random(Xo.shape[0]) < pio).astype(float)
        g = (yo - pio)[:, None] * Xo
        V = np.einsum("ij,ik->jk", g, g) / Xo.shape[0]
        oracle = np.linalg.solve(U, np.linalg.solve(U, V).T)

        n = 200_000
        X = rng.standard_normal((n, 2))
        y = (rng.random(n) < expit(X @ theta0)).astype(float)
        data = make_obs(y, X)
        fit = fit_local(LOGISTIC2, data)
        sigma = sandwich_variance(LOGISTIC2, data, fit.thetas[0])
        assert np.abs(sigma - oracle).max() <= 0.05 * np.abs(oracle).max()

    def test_permutation_invariance_bit_level(self):
        rng = np.random.default_rng(59)
        X = rng.standard_normal((500, 2))
        y = X @ [1.0, -1.0] + rng.standard_normal(500)
        theta = np.array([0.9, -1.1])
        base = sandwich_variance(LINEAR2, make_obs(y, X), theta)
        for _ in range(5):
            perm = rng.permutation(500)
            shuffled = sandwich_variance(LINEAR2, make_obs(y[perm], X[perm]), theta)
            assert np.array_equal(base, shuffled)

    def test_singular_hessian_raises(self):
        # A rank-one design makes U singular.
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        y = np.array([1.0, 2.0, 3.5])
        with pytest.raises(SingularMatrixError):
            sandwich_variance(LINEAR2, make_obs(y, X), np.array([0.5, 0.0]))

    def test_allow_singular_pseudo_inverse(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        y = np.array([1.0, 2.0, 3.5])
        sigma = sandwich_variance(
            LINEAR2, make_obs(y, X), np.array([0.5, 0.0]), allow_singular=True
        )
        assert np.isfinite(sigma).all()

    def test_sums_beyond_the_largest_double(self):
        # At theta = 1e200 the gradient products overflow to +-inf, and fsum
        # refuses inf - inf: a recomputed sandwich comes out all NaN, a
        # fitted one still raises.
        rng = np.random.default_rng(61)
        X = rng.standard_normal((50, 2))
        data = make_obs(X @ [1.0, 2.0] + rng.standard_normal(50), X)
        theta = np.array([1e200, 1e200])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="inf"):
                sandwich_variance(LINEAR2, data, theta)
            sigma = sandwich_variance(LINEAR2, data, theta, allow_singular=True)
        assert sigma.shape == (2, 2) and np.isnan(sigma).all()
        with pytest.raises(DimensionError):
            sandwich_variance(LINEAR2, data, [1.0, 2.0, 3.0], allow_singular=True)

    def test_fit_whose_sandwich_sums_overflow_raises_a_numerical_error(self):
        # At theta0 = (1e300, 2) the fitted residuals are ~1e284 and their
        # squared gradients overflow: the fit raises an error of the package
        # (a ValueError too), naming the sandwich, and numpy warns of nothing.
        rng = np.random.default_rng(62)
        X = rng.standard_normal((50, 2))
        data = make_obs(X @ [1e300, 2.0] + rng.standard_normal(50), X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (fit_local, lambda model, data: fit_shards(model, [data, data])):
                with pytest.raises(NonFiniteSumError, match="^sandwich variance .*inf") as excinfo:
                    fit(LINEAR2, data)
                assert isinstance(excinfo.value, NumericalError)
                assert isinstance(excinfo.value, ValueError)


class TestObservations:
    def test_immutability(self):
        data = make_obs([1.0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            data.y[0] = 7.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_obs([float("inf")], [[1.0, 2.0]])

    @pytest.mark.parametrize("rows", [slice(1, 4), slice(None, 2), slice(3, 3), slice(0, 5, 2), slice(None, None, -1)])
    def test_slices_are_read_only_contiguous_shards(self, rows):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        X = np.arange(10.0).reshape(5, 2)
        shard = make_obs(y, X)[rows]
        assert np.array_equal(shard.y, y[rows]) and np.array_equal(shard.X, X[rows])
        for a in (shard.y, shard.X):
            assert a.flags.c_contiguous and not a.flags.writeable
        assert shard.binary == bool(np.isin(y[rows], (0.0, 1.0)).all())

    def test_an_int_index_is_not_a_row(self):
        data = make_obs([1.0, 0.0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DimensionError, match="X must be two-dimensional"):
            data[0]
        assert np.array_equal(data[[1]].X, [[3.0, 4.0]])
        assert not np.shares_memory(data[::-1].X, data.X)

    def test_logistic_requires_binary(self):
        with pytest.raises(ValueError):
            criterion_eval(LOGISTIC2, make_obs([0.5], [[1.0, 0.0]]), [0.0, 0.0])
