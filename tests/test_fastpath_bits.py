"""The one-pass and stacked forms of the per-server steps, compared bit for
bit with the per-item computations they stand for.

Each reference below is written out here, one call per entry or per server,
so a rewrite of the library code cannot silently move the reference with it.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.special import expit

from robustagg import numkit
from robustagg.aggregate import LocalEstimate
from robustagg.detect import detect
from robustagg.errors import DimensionError, NumericalError
from robustagg.models import (
    ModelSpec,
    Observations,
    _mean_outer,
    criterion_eval,
    sandwich_variance,
)
from robustagg.spatialmed import aggregate_sigma, spatial_median

# A contaminated desk-scale variance matrix.  Its smallest eigenvalue from
# eigh is 9.77e-4 > 0, so the PD screen keeps it, but LU factorization finds
# it exactly singular (and Cholesky rejects it).
NEAR_SINGULAR = np.array(
    [
        [13027255262208.805, -13027708157195.771],
        [-13027708157195.771, 13028161067927.719],
    ]
)


def server_order(e):
    """Integer ids ascending, then string ids ascending."""
    return (isinstance(e.server_id, str), e.server_id)


def est(sid, n_k, theta, sigma):
    return LocalEstimate(sid, n_k, np.asarray(theta, float), np.asarray(sigma, float))


def random_pd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + 0.05 * np.eye(p)


# ---------------------------------------------------------------------------
# Sandwich sums and the logistic Hessian
# ---------------------------------------------------------------------------


def mean_outer_reference(rows):
    """One math.fsum per matrix entry, over that entry's column product."""
    n, p = rows.shape
    out = np.empty((p, p))
    for j in range(p):
        for k in range(j, p):
            s = math.fsum((rows[:, j] * rows[:, k]).tolist()) / n
            out[j, k] = s
            out[k, j] = s
    return out


class TestSandwichSums:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_mean_outer_matches_per_entry_fsum(self, p):
        rng = np.random.default_rng(100 + p)
        for n in (1, 2, 7, 50, 333, 1999):
            rows = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8.0, 8.0, p)
            assert np.array_equal(_mean_outer(rows.T[None])[0], mean_outer_reference(rows))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_column_means_match_per_column_fsum(self, p):
        rng = np.random.default_rng(200 + p)
        for n in (1, 3, 64, 1001):
            a = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8.0, 8.0, p)
            expected = np.array([math.fsum(a[:, j].tolist()) / n for j in range(p)])
            assert np.array_equal(numkit.exact_column_means(a), expected)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("p,n", [(2, 50), (2, 1000), (4, 100), (4, 300), (1, 1200), (5, 1600)])
    def test_sandwich_matches_per_entry_fsum(self, kind, p, n):
        # Exact-sum calls from 150 to 32,000 entries, all by extraction.
        rng = np.random.default_rng(400 + 10 * p + n)
        X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2.0, 2.0, p)
        theta = rng.standard_normal(p) / np.abs(X).max(axis=0)
        if kind == "linear":
            model = ModelSpec.linear(p)
            y = X @ theta + rng.standard_normal(n)
            grads = 2.0 * (y - X @ theta)[:, None] * X
            u_hat = 2.0 * mean_outer_reference(X)
        else:
            model = ModelSpec.logistic(p)
            y = (rng.random(n) < expit(X @ theta)).astype(float)
            grads = (y - expit(X @ theta))[:, None] * X
            w = expit(X @ theta)
            w = w * (1.0 - w)
            u_hat = mean_outer_reference(np.sqrt(w)[:, None] * X)
        gbar = np.array([math.fsum(grads[:, j].tolist()) / n for j in range(p)])
        v_hat = mean_outer_reference(grads - gbar)
        half = np.linalg.solve(u_hat, v_hat)
        expected = numkit.symmetrize(np.linalg.solve(u_hat, half.T).T)
        got = sandwich_variance(model, Observations(y, X), theta)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_logistic_hessian_is_three_operand_einsum(self, p):
        # The two-operand form einsum("ij,ik->jk", w[:, None] * X, X) is
        # faster and agrees for p >= 2, but at p = 1 einsum reduces with a
        # vectorized loop that rounds differently in most shards.
        rng = np.random.default_rng(300 + p)
        model = ModelSpec.logistic(p)
        for n in (5, 97, 1000):
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < 0.5).astype(float)
            theta = rng.standard_normal(p)
            _, _, hess = criterion_eval(model, Observations(y, X), theta)
            pi = expit(X @ theta)
            w = pi * (1.0 - pi)
            expected = numkit.symmetrize(-np.einsum("i,ij,ik->jk", w, X, X) / n)
            assert np.array_equal(hess, expected)


# ---------------------------------------------------------------------------
# PD screen and variance aggregation
# ---------------------------------------------------------------------------


def screen_cases(rng, p):
    asym = random_pd(rng, p)
    asym[0, -1] += 1.0 if p > 1 else 0.0
    nan = random_pd(rng, p)
    nan[0, 0] = np.nan
    cases = [
        random_pd(rng, p),
        -random_pd(rng, p),
        np.zeros((p, p)),
        asym,
        nan,
        np.full((p, p), np.inf),
        random_pd(rng, p) * (1.0 + 1e-14 * rng.standard_normal((p, p))),
    ]
    return cases + ([NEAR_SINGULAR] if p == 2 else [])


def is_symmetric_reference(m):
    """Symmetric within SYM_RTOL of the largest entry, tested on one matrix."""
    scale = float(np.abs(m).max())
    with np.errstate(invalid="ignore"):  # inf - inf on the inf cases
        asymmetry = float(np.abs(m - m.T).max())
    return scale == 0.0 or asymmetry <= numkit.SYM_RTOL * scale


def is_pd_reference(m):
    """Symmetric, and the smallest eigenvalue of one eigh call > 0."""
    return is_symmetric_reference(m) and float(np.linalg.eigh((m + m.T) / 2.0)[0][0]) > 0.0


class TestPositiveDefiniteScreen:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_matches_per_matrix_decisions(self, p):
        rng = np.random.default_rng(400 + p)
        mats = screen_cases(rng, p) + [random_pd(rng, p) for _ in range(20)]
        ok, sym = numkit.screen_positive_definite(np.stack(mats))
        expected = [is_pd_reference(m) for m in mats]
        assert ok.tolist() == expected
        assert [bool(numkit.screen_positive_definite(m[None])[0][0]) for m in mats] == expected
        assert [bool(numkit.symmetric_mask(m)) for m in mats] == [
            is_symmetric_reference(m) for m in mats
        ]
        for m, s in zip(mats, sym):
            assert np.array_equal(s, numkit.symmetrize(m), equal_nan=True)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_vech_stack_matches_per_matrix_vech(self, p):
        rng = np.random.default_rng(450 + p)
        sym = np.stack([numkit.symmetrize(rng.standard_normal((p, p))) for _ in range(7)])
        got = numkit.vech_stack(sym)
        assert np.array_equal(got, np.stack([numkit.vech(m) for m in sym]))

    def test_one_matrix_at_a_time_when_the_stacked_eigh_raises(self, monkeypatch):
        rng = np.random.default_rng(470)
        mats = np.stack(screen_cases(rng, 3) + [random_pd(rng, 3) for _ in range(5)])
        with np.errstate(all="ignore"):
            want_ok, want_sym = numkit.screen_positive_definite(mats)
        eigh = np.linalg.eigh
        calls = []

        def stacks_raise(a):
            calls.append(a.ndim)
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", stacks_raise)
        with np.errstate(all="ignore"):
            ok, sym = numkit.screen_positive_definite(mats)
        assert ok.tolist() == want_ok.tolist()
        assert sym.tobytes() == want_sym.tobytes()
        assert calls[0] == 3 and calls.count(2) == len(calls) - 1 > 1

        def all_raise(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", all_raise)
        monkeypatch.setattr(np.linalg, "cond", lambda a: 1e300)
        with pytest.raises(NumericalError, match="did not converge"), np.errstate(all="ignore"):
            numkit.screen_positive_definite(mats)

    def test_near_singular_matrix_is_kept(self):
        ok, _ = numkit.screen_positive_definite(NEAR_SINGULAR[None])
        assert ok.tolist() == [True]

    def test_empty_stack(self):
        ok, sym = numkit.screen_positive_definite(np.zeros((0, 3, 3)))
        assert ok.shape == (0,) and sym.shape == (0, 3, 3)


def adversarial_stack(rng, n, p):
    """``n`` symmetric p x p matrices with eigenvalues from e^-40 to e^5,
    scaled by 10^-300 to 10^300.  A quarter are indefinite by one eigenvalue
    just below zero and a quarter near singular by one just above it, some
    within rounding of zero and some near the certificate's shift 2^-30;
    the first few are all-zero, subnormal and README's desk matrix."""
    q = np.linalg.qr(rng.standard_normal((n, p, p)))[0]
    lam = np.exp(rng.uniform(-40.0, 5.0, (n, p)))
    top = lam.max(axis=1)
    gap = top * 2.0 ** rng.choice([-60.0, -45.0, -31.0, -29.0], n)
    quarter = np.arange(n) % 4
    lam[quarter == 1, 0] = -gap[quarter == 1]
    lam[quarter == 2, 0] = gap[quarter == 2]
    scale = 10.0 ** rng.uniform(-300.0, 300.0, n)
    stack = ((q * lam[:, None, :]) @ q.swapaxes(-1, -2)) * scale[:, None, None]
    stack = (stack + stack.swapaxes(-1, -2)) / 2.0
    stack[0] = 0.0
    stack[1] = 5e-324 * np.eye(p)
    stack[2] = 1e-310 * random_pd(rng, p)
    if p == 2:
        stack[3] = NEAR_SINGULAR
    return stack


class TestCertifiedScreen:
    """The Cholesky certificate of ``screen_positive_definite`` decides no
    verdict ``eigh`` would not, and spares ``eigh`` every matrix it proves
    positive definite."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_adversarial_sweep_matches_eigh(self, p):
        rng = np.random.default_rng(700 + p)
        stack = adversarial_stack(rng, 400, p)
        ok, sym = numkit.screen_positive_definite(stack)
        assert ok.tolist() == [is_pd_reference(m) for m in stack]
        assert sym.tobytes() == numkit.symmetrize(stack).tobytes()
        # The certificate alone certifies only what eigh keeps.  It
        # certifies something, and above p = 1 (where it decides alone)
        # leaves some matrices eigh keeps to eigh: the sweep reaches both.
        scale = np.abs(sym).max(axis=(1, 2))
        certified = numkit._certified_pd(sym, scale)
        assert not (certified & ~ok).any()
        assert certified.any() and (p == 1 or (ok & ~certified).any())

    @pytest.mark.parametrize("p", [2, 5])
    def test_zero_subnormal_and_desk_matrices_go_to_eigh(self, p):
        rng = np.random.default_rng(760 + p)
        stack = adversarial_stack(rng, 4, p)[:4 if p == 2 else 3]
        calls = self.count_eigh_calls(stack)
        assert calls == [(len(stack), p, p)]

    def test_clean_round_calls_no_eigh(self):
        rng = np.random.default_rng(780)
        stack = np.stack([random_pd(rng, 5) for _ in range(400)])
        assert self.count_eigh_calls(stack) == []

    def test_one_hostile_matrix_goes_to_eigh_alone(self):
        rng = np.random.default_rng(781)
        stack = np.stack([random_pd(rng, 5) for _ in range(400)])
        stack[137] = -stack[137]
        assert self.count_eigh_calls(stack) == [(1, 5, 5)]
        assert numkit.screen_positive_definite(stack)[0].tolist() == [k != 137 for k in range(400)]

    @pytest.mark.parametrize("factor", [2.0**-961, 2.0**961])
    def test_largest_entry_out_of_range_goes_to_eigh(self, factor):
        rng = np.random.default_rng(782)
        stack = np.stack([random_pd(rng, 3) for _ in range(4)])
        stack *= factor / np.abs(stack).max(axis=(1, 2))[:, None, None]
        assert self.count_eigh_calls(stack) == [(4, 3, 3)]

    def test_p_beyond_the_sweep_goes_to_eigh(self):
        # The certificate is used up to the p its parity sweep covered.
        rng = np.random.default_rng(783)
        stack = np.stack([random_pd(rng, 9) for _ in range(2)])
        assert self.count_eigh_calls(stack) == [(2, 9, 9)]
        assert self.count_eigh_calls(stack[:, :8, :8]) == []

    @staticmethod
    def count_eigh_calls(stack):
        """The shapes ``np.linalg.eigh`` is called on by one screen, which
        must keep ``is_pd_reference``'s verdicts."""
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", counting)
            ok, _ = numkit.screen_positive_definite(stack)
        assert ok.tolist() == [is_pd_reference(m) for m in stack]
        return calls


def aggregate_sigma_reference(estimates):
    """The variance aggregation with one PD test and one vech per server."""
    ests = sorted(estimates, key=server_order)
    vechs, weights = [], []
    for e in ests:
        s = e.sigma_star
        vechs.append(numkit.vech(s if is_pd_reference(s) else numkit.pd_project(s)))
        weights.append(math.sqrt(e.n_k))
    return numkit.vech_inv(spatial_median(np.array(vechs), weights).eta, ests[0].p)


class TestAggregateSigma:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_per_server_reference(self, p):
        rng = np.random.default_rng(500 + p)
        for _ in range(5):
            k = int(rng.integers(3, 40))
            ests = [
                est(sid, int(rng.integers(50, 2000)), rng.standard_normal(p), random_pd(rng, p))
                for sid in range(1, k + 1)
            ]
            cases = [c for c in screen_cases(rng, p) if np.isfinite(c).all()]
            ests += [
                est(k + 1 + i, 500, rng.standard_normal(p), c) for i, c in enumerate(cases)
            ]
            rng.shuffle(ests)
            assert np.array_equal(aggregate_sigma(ests).sym, aggregate_sigma_reference(ests))

    def test_non_finite_matrices_left_out(self):
        # A matrix with a nan or an inf entry cannot be repaired to PD, so the
        # median is taken over the other servers, and the screen flags the
        # servers that sent them by their variance.
        rng = np.random.default_rng(7)
        clean = [est(sid, 100, [0.0, 0.0], random_pd(rng, 2)) for sid in range(1, 6)]
        nan = random_pd(rng, 2)
        nan[1, 0] = np.nan
        inf = random_pd(rng, 2)
        inf[0, 0] = np.inf
        ests = clean + [est(6, 100, [0.0, 0.0], nan), est(7, 100, [0.0, 0.0], inf)]
        sigma = aggregate_sigma(ests).sym
        assert np.array_equal(sigma, aggregate_sigma(clean).sym)
        assert np.array_equal(sigma, aggregate_sigma_reference(clean))
        report = detect(ests, [0.0, 0.0], sigma)
        assert report.flagged_theta_ids() == []
        assert report.flagged_sigma_ids() == [6, 7]

    def test_no_finite_matrix_raises(self):
        nan = np.full((2, 2), np.nan)
        with pytest.raises(NumericalError):
            aggregate_sigma([est(sid, 100, [0.0, 0.0], nan) for sid in (1, 2)])


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def distance_reference(e, theta_hat, sigma):
    """sqrt{n_k d^T Sigma^{-1} d} by one 1-D solve against the symmetrized
    ``sigma``; raises the solve's LinAlgError."""
    diff = e.theta_star - theta_hat
    sol = np.linalg.solve((sigma + sigma.T) / 2.0, diff)
    return math.sqrt(e.n_k * max(float(diff @ sol), 0.0))


def d1_reference(e, theta_hat, sigma_hat):
    if theta_hat.size != e.p:
        raise DimensionError("theta_hat dimension does not match the estimate")
    if sigma_hat.shape != (e.p, e.p):
        raise DimensionError("sigma_hat dimension does not match the estimate")
    assert is_pd_reference(sigma_hat)
    return distance_reference(e, theta_hat, sigma_hat)


def d2_reference(e, theta_hat):
    if not is_pd_reference(e.sigma_star):
        return None
    try:
        return distance_reference(e, theta_hat, e.sigma_star)
    except np.linalg.LinAlgError:
        return None


def detect_reference(estimates, theta_hat, sigma_hat, alpha=0.05):
    """The two-step screen, computed one server at a time."""
    ests = sorted(estimates, key=server_order)
    theta_hat = np.asarray(theta_hat, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    threshold = math.sqrt(float(special.chdtri(theta_hat.size, alpha)))
    rows = []
    for e in ests:
        try:
            d1 = d1_reference(e, theta_hat, sigma_hat)
        except (DimensionError, np.linalg.LinAlgError) as exc:
            rows.append((e.server_id, None, None, False, False, str(exc)))
            continue
        flagged = d1 > threshold
        d2 = None if flagged else d2_reference(e, theta_hat)
        sigma_flagged = not flagged and (d2 is None or d2 > threshold)
        rows.append((e.server_id, d1, d2, flagged, sigma_flagged, None))
    return rows


def report_rows(report):
    return [
        (r.server_id, r.d1, r.d2, r.theta_flagged, r.sigma_flagged, r.error)
        for r in report.records
    ]


class TestDetect:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_matches_per_server_distances(self, p):
        rng = np.random.default_rng(600 + p)
        theta_hat = rng.standard_normal(p)
        for _ in range(5):
            sigma_hat = random_pd(rng, p)
            k = int(rng.integers(5, 60))
            ests = []
            for sid in range(1, k + 1):
                own = random_pd(rng, p)
                theta = theta_hat + rng.standard_normal(p) / 20.0
                kind = rng.random()
                if kind < 0.15:  # step-1 flagged with a singular matrix
                    theta, own = np.full(p, -1e6), np.zeros((p, p))
                elif kind < 0.25:  # step-1 flagged with a rank-one matrix
                    v = rng.standard_normal(p)
                    theta, own = theta_hat + 1e3, np.outer(v, v)
                elif kind < 0.35:
                    own = -own
                elif kind < 0.45 and p == 2:
                    own = NEAR_SINGULAR
                elif kind < 0.55:
                    own = own / 1e4
                ests.append(est(sid, int(rng.integers(20, 2000)), theta, own))
            rng.shuffle(ests)
            report = detect(ests, theta_hat, sigma_hat)
            assert report_rows(report) == detect_reference(ests, theta_hat, sigma_hat)

    def test_lu_singular_sigma_hat_is_recorded_per_server(self):
        ests = [est(sid, 100, [0.0, 0.0], np.eye(2)) for sid in (2, 1)]
        ests.append(LocalEstimate(3, 100, np.zeros(3), np.eye(3)))
        report = detect(ests, [0.0, 0.0], NEAR_SINGULAR)
        assert report_rows(report) == detect_reference(ests, [0.0, 0.0], NEAR_SINGULAR)
        assert all(r.error is not None for r in report.records)

    def test_first_server_of_another_dimension(self):
        # The first server in id order does not match theta_hat; the servers
        # after it are still screened together.
        rng = np.random.default_rng(650)
        theta_hat = rng.standard_normal(2)
        sigma_hat = random_pd(rng, 2)
        ests = [LocalEstimate(1, 100, np.zeros(3), np.eye(3))]
        ests += [
            est(sid, int(rng.integers(20, 2000)), theta_hat + rng.standard_normal(2) / 20.0,
                random_pd(rng, 2))
            for sid in range(2, 12)
        ]
        ests += [est(12, 100, theta_hat + 1e3, np.eye(2)), est(13, 100, theta_hat, -np.eye(2))]
        rng.shuffle(ests)
        report = detect(ests, theta_hat, sigma_hat)
        assert report_rows(report) == detect_reference(ests, theta_hat, sigma_hat)
        assert report.records[0].error == "theta_hat dimension does not match the estimate"
        # The degrees of freedom are theta_hat's 2, not the first server's 3.
        assert report.p == 2
        assert report.threshold == pytest.approx(2.4477, abs=1e-4)
        assert 12 in report.flagged_theta_ids()
        assert 13 in report.flagged_sigma_ids()

    def test_every_server_flagged_in_step_one(self):
        ests = [est(sid, 100, [-1e6, -1e6], np.zeros((2, 2))) for sid in (3, 1, 2)]
        report = detect(ests, [0.0, 0.0], np.eye(2))
        assert report_rows(report) == detect_reference(ests, [0.0, 0.0], np.eye(2))
        assert report.flagged_theta_ids() == [1, 2, 3]
