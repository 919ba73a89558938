import math
import sys

import numpy as np
import pytest
from scipy import integrate

from robustagg import aggregate, numkit
from robustagg.aggregate import (
    AggregationResult,
    LocalEstimate,
    huber_aggregate,
    standard_errors,
    tau_c,
    weighted_average,
)
from robustagg.errors import (
    DimensionError,
    NonConvergenceError,
    NotPositiveDefiniteError,
    NumericalError,
)


def make_estimates(rng, k, p, n_lo=1, n_hi=50, spread=1.0):
    center = rng.standard_normal(p)
    out = []
    for sid in range(1, k + 1):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        sigma = (q * rng.uniform(0.5, 2.0, size=p)) @ q.T
        out.append(
            LocalEstimate(
                server_id=sid,
                n_k=int(rng.integers(n_lo, n_hi + 1)),
                theta_star=center + spread * rng.standard_normal(p),
                sigma_star=sigma,
            )
        )
    return out


class TestPsi:
    """psi_c as the Huber aggregate's estimating equations apply it."""

    def test_clipped(self):
        # A server clipped in every coordinate enters the equations only
        # through +-c, so moving it further out leaves every iterate as it was.
        rng = np.random.default_rng(5)
        ests = make_estimates(rng, 9, 2, n_lo=50, n_hi=50, spread=0.05)

        def with_outlier(x):
            e = ests[0]
            moved = [LocalEstimate(e.server_id, e.n_k, [x, -x], e.sigma_star)] + ests[1:]
            return huber_aggregate(moved, np.eye(2)).theta_hat

        assert np.array_equal(with_outlier(1e3), with_outlier(1e6))

    def test_odd_and_bounded(self):
        # psi_c is odd, so negating every estimate negates the aggregate bit
        # for bit; it is bounded, so one far server keeps the aggregate
        # within the others' range.
        rng = np.random.default_rng(2)
        ests = make_estimates(rng, 12, 3, spread=0.1)
        sigma = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
        ests[0] = LocalEstimate(1, ests[0].n_k, [1e6, -1e6, 1e6], ests[0].sigma_star)
        flipped = [LocalEstimate(e.server_id, e.n_k, -e.theta_star, e.sigma_star) for e in ests]
        theta = huber_aggregate(ests, sigma).theta_hat
        assert np.array_equal(huber_aggregate(flipped, sigma).theta_hat, -theta)
        clean = np.array([e.theta_star for e in ests[1:]])
        assert (clean.min(axis=0) <= theta).all() and (theta <= clean.max(axis=0)).all()


class TestTau:
    def test_paper_values(self):
        assert tau_c(1.345) == pytest.approx(0.950, abs=1e-3)
        assert tau_c(0.9818) == pytest.approx(0.900, abs=1e-3)
        assert tau_c(1.5) == pytest.approx(0.964, abs=1e-3)
        assert tau_c(1e-4) == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_infinity(self):
        assert tau_c(math.inf) == 1.0

    def test_finite_c_beyond_the_square_root_of_the_largest_double(self):
        # c * c and 2 c overflow to inf, where the terms they multiply are 0.
        assert tau_c(1e155) == tau_c(1e308) == tau_c(sys.float_info.max) == 1.0

    def test_bits_of_the_written_out_formula(self):
        # From c = 1e-2, below which the formula cancels and tau_c sums
        # series instead, up to c = 1e154, where c * c is finite, tau_c is
        # the formula as written, bit for bit (or the same error).
        def outcome(tau, c):
            try:
                return tau(c).hex()
            except ArithmeticError as exc:
                return type(exc).__name__

        def written_out(c):
            b = math.erf(c / math.sqrt(2.0))
            pdf_c = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * c * c)
            return b * b / (b - 2.0 * c * pdf_c + c * c * (1.0 - b))

        rng = np.random.default_rng(31)
        grid = np.concatenate([10.0 ** rng.uniform(-2.0, 154.0, 4000), np.arange(1, 401) / 10.0, [1e154]])
        for c in grid.tolist():
            assert outcome(tau_c, c) == outcome(written_out, c), c

    def test_against_mpmath_down_to_the_smallest_double(self):
        # 60 digits beyond the ~2 log10(1/c) that the formula's b - 2 c
        # phi(c) cancels in the reference itself.
        mpmath = pytest.importorskip("mpmath")

        def reference(c):
            with mpmath.workdps(60 + 2 * max(0, -math.floor(math.log10(c)))):
                c = mpmath.mpf(c)
                b = mpmath.erf(c / mpmath.sqrt(2))
                return b * b / (b - 2 * c * mpmath.npdf(c) + c * c * (1 - b))

        rng = np.random.default_rng(37)
        grid = np.concatenate([10.0 ** rng.uniform(-323.3, 0.0, 1500), [5e-324, 1e-160, 1e-12, 1e-8, 1e-2, 1.0]])
        for c in [*grid.tolist(), math.nextafter(1e-2, 0.0)]:
            want = reference(c)
            assert abs(tau_c(c) - want) <= 1e-13 * want, c

    def test_closed_form_against_quadrature(self):
        # sigma_c^2 = int_{-c}^{c} u^2 phi(u) du + c^2 (1 - b_c), by quadrature.
        def phi(u):
            return math.exp(-u * u / 2) / math.sqrt(2 * math.pi)

        for c in (0.5, 1.0, 1.345, 2.0):
            inner, _ = integrate.quad(lambda u: u * u * phi(u), -c, c, epsabs=1e-13)
            b = math.erf(c / math.sqrt(2))
            sigma2_quad = inner + c * c * (1 - b)
            sigma2_closed = b - 2 * c * phi(c) + c * c * (1 - b)
            assert sigma2_closed == pytest.approx(sigma2_quad, abs=1e-9)
            assert tau_c(c) == pytest.approx(b * b / sigma2_quad, abs=1e-9)

    def test_monotone_in_c(self):
        grid = [0.1, 0.5, 1.0, 1.345, 2.0, 5.0]
        values = [tau_c(c) for c in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(2.0 / math.pi < v <= 1.0 for v in values)


class TestLocalEstimate:
    def test_zero_n_k_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            LocalEstimate(1, 0, [1.0, 2.0], np.eye(2))
        assert str(excinfo.value) == "n_k must be >= 1"

    def test_wrong_shape_sigma_rejected(self):
        with pytest.raises(DimensionError) as excinfo:
            LocalEstimate(1, 10, [1.0, 2.0], np.eye(3))
        assert str(excinfo.value) == "sigma_star has shape (3, 3), expected (2, 2)"


class TestWeightedAverage:
    def test_identical_estimates(self):
        ests = [
            LocalEstimate(sid, 10, np.array([2.0, 1.0]), np.eye(2))
            for sid in range(1, 6)
        ]
        theta, sigma = weighted_average(ests)
        assert np.allclose(theta, [2.0, 1.0])
        assert np.allclose(sigma, np.eye(2))

    def test_weight_arithmetic(self):
        ests = [
            LocalEstimate(1, 1, np.array([0.0, 0.0]), np.eye(2)),
            LocalEstimate(2, 3, np.array([4.0, 4.0]), np.eye(2)),
        ]
        theta, _ = weighted_average(ests)
        assert np.allclose(theta, [3.0, 3.0])

    def test_single_server(self):
        est = LocalEstimate(1, 7, np.array([1.5]), np.array([[2.0]]))
        theta, sigma = weighted_average([est])
        assert np.allclose(theta, [1.5])
        assert np.allclose(sigma, [[2.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([])


def scalar_psi_root_oracle(values, weights, c, lo, hi):
    """Bisection on the one-dimensional estimating function."""

    def f(theta):
        return sum(
            w * min(max(v - theta, -c), c) for v, w in zip(values, weights)
        )

    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestHuberAggregate:
    def test_identical_estimates_exact(self):
        t = np.array([3.0, -1.0])
        ests = [LocalEstimate(sid, 5, t, np.eye(2)) for sid in range(1, 8)]
        res = huber_aggregate(ests, 2.0 * np.eye(2), 1.0)
        assert np.array_equal(res.theta_hat, t)
        assert res.residual_norm <= 1e-10

    def test_scalar_clip_split_example(self):
        # K=3, n_k=1, Sigma=1, c=1, estimates (0, 0, 100): the root balances
        # two interior terms against one clipped term.  Bisection oracle
        # first; the closed-form answer is 0.5.
        oracle = scalar_psi_root_oracle([0.0, 0.0, 100.0], [1.0, 1.0, 1.0], 1.0, -1.0, 5.0)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        ests = [
            LocalEstimate(i, 1, np.array([v]), np.array([[1.0]]))
            for i, v in enumerate((0.0, 0.0, 100.0), start=1)
        ]
        res = huber_aggregate(ests, np.array([[1.0]]), 1.0)
        assert res.theta_hat[0] == pytest.approx(oracle, abs=1e-10)

    def test_infinite_c_reduces_to_weighted_average(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = int(rng.integers(1, 51))
            p = int(rng.integers(1, 6))
            ests = make_estimates(rng, k, p)
            sigma = np.eye(p) * rng.uniform(0.5, 3.0)
            res = huber_aggregate(ests, sigma, math.inf)
            theta_bar, _ = weighted_average(ests)
            assert np.abs(res.theta_hat - theta_bar).max() <= 1e-8
            assert res.tau == 1.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(23)
        ests = make_estimates(rng, 12, 3)
        sigma = np.eye(3)
        shift = np.array([10.0, -4.0, 0.5])
        base = huber_aggregate(ests, sigma, 1.345)
        shifted = [
            LocalEstimate(e.server_id, e.n_k, e.theta_star + shift, e.sigma_star)
            for e in ests
        ]
        res = huber_aggregate(shifted, sigma, 1.345)
        assert np.abs(res.theta_hat - (base.theta_hat + shift)).max() <= 1e-9

    def test_bounded_influence_vs_weighted_average(self):
        rng = np.random.default_rng(29)
        clean = make_estimates(rng, 9, 2, n_lo=10, n_hi=10, spread=0.1)
        sigma = np.eye(2)
        norms = []
        wa_first = []
        for mag in (1e2, 1e3, 1e4, 1e6, 1e9):
            ests = clean + [
                LocalEstimate(10, 10, np.array([mag, mag]), np.eye(2))
            ]
            res = huber_aggregate(ests, sigma, 1.345)
            norms.append(float(np.linalg.norm(res.theta_hat)))
            theta_bar, _ = weighted_average(ests)
            wa_first.append(theta_bar[0])
        # The robust aggregate stabilizes; the weighted average grows linearly.
        assert max(norms) - min(norms) <= 1e-6
        ratios = [b / a for a, b in zip(wa_first, wa_first[1:])]
        assert ratios[-1] == pytest.approx(1e3, rel=1e-3)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(31)
        ests = make_estimates(rng, 15, 3)
        sigma = np.eye(3)
        base = huber_aggregate(ests, sigma, 1.0)
        for _ in range(5):
            perm = rng.permutation(len(ests))
            res = huber_aggregate([ests[i] for i in perm], sigma, 1.0)
            assert np.abs(res.theta_hat - base.theta_hat).max() <= 1e-12

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, np.nan]])
    def test_non_finite_theta_left_out(self, bad):
        rng = np.random.default_rng(43)
        ests = make_estimates(rng, 9, 2)
        sigma = np.array([[1.5, 0.2], [0.2, 0.8]])
        clean = huber_aggregate(ests[:4] + ests[5:], sigma)
        ests[4] = LocalEstimate(ests[4].server_id, ests[4].n_k, bad, ests[4].sigma_star)
        res = huber_aggregate(ests, sigma)
        assert np.isfinite(res.theta_hat).all()
        for got, want in zip(res.__dict__.values(), clean.__dict__.values()):
            assert np.array_equal(got, want)

    def test_no_finite_theta_raises(self):
        ests = [LocalEstimate(k, 10, [np.nan, 1.0], np.eye(2)) for k in (1, 2)]
        with pytest.raises(NumericalError, match="no estimate with finite entries"):
            huber_aggregate(ests, np.eye(2))

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_nonpositive_c_rejected(self, c):
        ests = [LocalEstimate(1, 3, np.array([1.0, 2.0]), np.eye(2))]
        with pytest.raises(ValueError, match="tuning constant c must be positive"):
            huber_aggregate(ests, np.eye(2), c)

    def test_non_pd_sigma_mentions_projection(self):
        ests = [LocalEstimate(1, 3, np.array([1.0, 2.0]), np.eye(2))]
        with pytest.raises(NotPositiveDefiniteError, match="pd_project"):
            huber_aggregate(ests, np.diag([1.0, -1.0]), 1.0)

    def test_sigma_hat_decomposed_once(self, monkeypatch):
        calls = []
        eigh = numkit._eigh

        def counting_eigh(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(numkit, "_eigh", counting_eigh)
        rng = np.random.default_rng(43)
        res = huber_aggregate(make_estimates(rng, 8, 3), np.diag([1.0, 2.0, 3.0]), 1.0)
        assert res.iterations >= 1
        assert len(calls) == 1

    def test_iteration_cap_carries_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(41)
        ests = make_estimates(rng, 8, 2)
        monkeypatch.setattr(aggregate, "DEFAULT_MAX_ITER", 0)
        with pytest.raises(NonConvergenceError) as excinfo:
            huber_aggregate(ests, np.eye(2), 1.0)
        assert excinfo.value.best is not None
        assert excinfo.value.residual > 0

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(37)
        ests = make_estimates(rng, 10, 2)
        res = huber_aggregate(ests, np.eye(2), 0.5)
        assert isinstance(res, AggregationResult)
        assert res.residual_norm <= 1e-10
        assert res.iterations >= 1
        assert (res.se > 0).all()
        assert 2.0 / math.pi < res.tau <= 1.0


class TestStandardErrors:
    def test_examples(self):
        assert np.allclose(standard_errors(np.eye(2), 100, 1.0), [0.1, 0.1])
        assert np.allclose(standard_errors(np.eye(2), 100, 0.25), [0.2, 0.2])
        assert np.allclose(
            standard_errors(np.diag([4.0, 1.0]), 400, 1.0), [0.1, 0.05]
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            standard_errors(np.diag([1.0, -1.0]), 100, 1.0)
        with pytest.raises(ValueError):
            standard_errors(np.eye(2), 0, 1.0)
        with pytest.raises(ValueError):
            standard_errors(np.eye(2), 100, 1.5)
