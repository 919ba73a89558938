import io
import math

import numpy as np
import pytest

from robustagg import numkit
from robustagg.aggregate import LocalEstimate
from robustagg.detect import detect
from robustagg.errors import NotPositiveDefiniteError


# Sent by a contaminated desk-scale server: eigh gives it a smallest
# eigenvalue of 9.77e-4 > 0, yet LU factorization finds it exactly singular.
LU_SINGULAR = np.array(
    [
        [13027255262208.805, -13027708157195.771],
        [-13027708157195.771, 13028161067927.719],
    ]
)


def est(sid, n_k, theta, sigma):
    return LocalEstimate(sid, n_k, np.asarray(theta, float), np.asarray(sigma, float))


# A PD matrix that the patched solve below treats as LU-singular, so the
# singular-solve branches run whatever this LAPACK's rounding does with
# LU_SINGULAR.
FORCED_SINGULAR = np.array([[2.0, 0.3], [0.3, 1.0]])


def solve_rejecting(monkeypatch, chosen):
    """Make np.linalg.solve raise, as LAPACK does for a singular matrix, on
    any input that is ``chosen`` or a stack containing it."""
    real = np.linalg.solve

    def solve(a, b):
        stack = np.asarray(a).reshape(-1, *chosen.shape)
        if (stack == chosen).all(axis=(1, 2)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)


# Wide enough that every server of these tests passes step 1, so that
# step 2 runs for it.
WIDE = 1e30 * np.eye(2)


def alone(e, theta_hat, sigma_hat=WIDE):
    """detect's row for ``e`` as the only server of its round."""
    return detect([e], theta_hat, sigma_hat).records[0]


def d1(e, theta_hat, sigma_hat):
    return alone(e, theta_hat, sigma_hat).d1


def d2(e, theta_hat):
    return alone(e, theta_hat).d2


def csv_text(report):
    """The text ``report.to_csv`` writes."""
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


class TestD1:
    def test_zero_at_aggregate(self):
        e = est(1, 50, [2.0, 1.0], np.eye(2))
        assert d1(e, [2.0, 1.0], np.eye(2)) == 0.0

    def test_arithmetic(self):
        e = est(1, 100, [2.1, 1.0], np.eye(2))
        assert d1(e, [2.0, 1.0], np.eye(2)) == pytest.approx(1.0)

    def test_hand_quadratic_form(self):
        # n=4, diff=(1,1), Sigma=diag(4,1): sqrt(4 * (1/4 + 1)) = sqrt(5).
        e = est(1, 4, [1.0, 1.0], np.eye(2))
        d = d1(e, [0.0, 0.0], np.diag([4.0, 1.0]))
        assert d == pytest.approx(math.sqrt(5.0))

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        for _ in range(20):
            diff = rng.standard_normal(2)
            s = float(rng.uniform(0.1, 50.0))
            base = d1(est(1, 9, diff, np.eye(2)), [0.0, 0.0], sigma)
            scaled = d1(
                est(1, 9, math.sqrt(s) * diff, np.eye(2)), [0.0, 0.0], s * sigma
            )
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_monotone_along_direction(self):
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        u = np.array([0.3, -0.8])
        values = [
            d1(est(1, 16, t * u, np.eye(2)), [0.0, 0.0], sigma)
            for t in (0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_non_pd_sigma_rejected(self):
        e = est(1, 4, [1.0, 0.0], np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            d1(e, [0.0, 0.0], np.diag([1.0, 0.0]))

    def test_wrong_size_theta_hat_rejected(self):
        e = est(1, 4, [1.0, 0.0], np.eye(2))
        row = alone(e, [0.0, 0.0, 0.0], np.eye(3))
        assert row.error == "theta_hat dimension does not match the estimate"
        assert row.d1 is None and row.d2 is None

    def test_pd_but_lu_singular_sigma_hat_raises(self, monkeypatch):
        # The solve's error replaces every d1, row by row.
        solve_rejecting(monkeypatch, FORCED_SINGULAR)
        ests = [est(1, 50, [2.0, 1.0], np.eye(2)), est(2, 50, [2.1, 1.0], np.eye(2))]
        report = detect(ests, [1.0, 1.0], FORCED_SINGULAR)
        assert [r.error for r in report.records] == ["Singular matrix"] * 2
        assert all(r.d1 is None and not r.theta_flagged for r in report.records)


class TestD2:
    def test_zero_at_aggregate(self):
        e = est(1, 50, [2.0, 1.0], np.array([[2.0, 0.1], [0.1, 1.0]]))
        assert d2(e, [2.0, 1.0]) == 0.0

    def test_matches_d1_with_own_sigma(self):
        e = est(1, 100, [2.1, 1.0], np.eye(2))
        assert d2(e, [2.0, 1.0]) == pytest.approx(1.0)

    def test_variance_scaling(self):
        e = est(1, 100, [2.1, 1.0], 4.0 * np.eye(2))
        assert d2(e, [2.0, 1.0]) == pytest.approx(0.5)

    def test_singular_sigma_is_sentinel(self):
        e = est(1, 100, [2.1, 1.0], np.diag([1.0, 0.0]))
        assert d2(e, [2.0, 1.0]) is None

    def test_indefinite_sigma_is_sentinel(self):
        e = est(1, 100, [2.1, 1.0], np.diag([1.0, -1.0]))
        assert d2(e, [2.0, 1.0]) is None

    def test_pd_but_lu_singular_sigma_is_sentinel(self):
        e = est(1, 1000, [2.001, 1.001], LU_SINGULAR)
        assert numkit.screen_positive_definite(LU_SINGULAR[None])[0].tolist() == [True]
        assert d2(e, [2.0, 1.0]) is None

    def test_wrong_size_theta_hat_rejected(self):
        e = est(1, 100, [2.1, 1.0], np.eye(2))
        row = alone(e, [2.0], np.eye(1))
        assert row.error == "theta_hat dimension does not match the estimate"
        assert row.d2 is None and not row.sigma_flagged

    def test_failed_solve_is_sentinel(self, monkeypatch):
        e = est(1, 1000, [2.001, 1.001], FORCED_SINGULAR)
        assert d2(e, [2.0, 1.0]) is not None
        solve_rejecting(monkeypatch, FORCED_SINGULAR)
        assert d2(e, [2.0, 1.0]) is None


def clean_estimates(rng, k=12, n_k=400, theta=(2.0, 1.0), sigma=None):
    """Estimates drawn from the asymptotic law around theta."""
    sigma = np.eye(2) if sigma is None else sigma
    root = np.linalg.cholesky(sigma)
    out = []
    for sid in range(1, k + 1):
        noise = root @ rng.standard_normal(2) / math.sqrt(n_k)
        out.append(est(sid, n_k, np.asarray(theta) + noise, sigma))
    return out


class TestDetect:
    def test_no_flags_when_everything_matches(self):
        ests = [est(sid, 100, [2.0, 1.0], np.eye(2)) for sid in range(1, 6)]
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        assert report.flagged_theta_ids() == []
        assert report.flagged_sigma_ids() == []
        assert report.threshold == pytest.approx(
            math.sqrt(-2.0 * math.log(0.05))
        )

    def test_extreme_server_flagged(self):
        rng = np.random.default_rng(7)
        ests = clean_estimates(rng)
        ests[0] = est(1, 400, [-1e6, -1e6], ests[0].sigma_star)
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        assert report.flagged_theta_ids() == [1]

    @pytest.mark.parametrize("bad", [[np.inf, 1.0], [np.nan, 1.0]])
    def test_non_finite_theta_flagged(self, bad):
        # d1 comes out NaN for both payloads; ``nan > threshold`` is False,
        # so the screen must flag on ``not d1 <= threshold``.
        rng = np.random.default_rng(7)
        ests = clean_estimates(rng)
        ests[2] = est(3, ests[2].n_k, bad, ests[2].sigma_star)
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        record = next(r for r in report.records if r.server_id == 3)
        assert not record.d1 <= report.threshold
        assert record.theta_flagged and not record.sigma_flagged
        assert record.d2 is None
        assert report.flagged_theta_ids() == [3]

    def test_shrunken_variance_flagged_via_d2(self):
        # Dividing a server's variance by 100 inflates its d2 tenfold, so a
        # server that was comfortably inside the threshold crosses it.
        rng = np.random.default_rng(11)
        ests = clean_estimates(rng)
        target = ests[3]
        d2_before = d2(target, [2.0, 1.0])
        shrunk = est(target.server_id, target.n_k, target.theta_star, target.sigma_star / 100.0)
        d2_after = d2(shrunk, [2.0, 1.0])
        assert d2_after == pytest.approx(10.0 * d2_before, rel=1e-9)
        ests[3] = shrunk
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        rec = next(r for r in report.records if r.server_id == 4)
        if d2_after > report.threshold:
            assert rec.sigma_flagged and not rec.theta_flagged

    def test_non_pd_sigma_star_flags_sigma(self):
        rng = np.random.default_rng(13)
        ests = clean_estimates(rng)
        bad = est(2, 400, ests[1].theta_star, np.diag([1.0, -1.0]))
        ests[1] = bad
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        rec = next(r for r in report.records if r.server_id == 2)
        assert rec.sigma_flagged
        assert rec.d2 is None
        assert not rec.theta_flagged

    def test_pd_but_lu_singular_sigma_flags_sigma(self):
        # Such a server passes step 1 with a theta near the aggregate; its
        # step-2 solve fails, which flags it instead of aborting the screen.
        rng = np.random.default_rng(23)
        ests = clean_estimates(rng)
        ests[1] = est(2, 1000, [2.001, 1.001], LU_SINGULAR)
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        rec = report.records[1]
        assert not rec.theta_flagged
        assert rec.d2 is None and rec.sigma_flagged
        others = [r for r in report.records if r.server_id != 2]
        assert all(r.d2 is not None for r in others if not r.theta_flagged)

    def test_failed_step2_solve_flags_only_that_server(self, monkeypatch):
        rng = np.random.default_rng(29)
        ests = clean_estimates(rng)
        ests[4] = est(5, 1000, [2.001, 1.001], FORCED_SINGULAR)
        ests[7] = est(8, 400, [-1e6, -1e6], np.eye(2))  # flagged in step 1
        expected = {e.server_id: d2(e, [2.0, 1.0]) for e in ests}
        solve_rejecting(monkeypatch, FORCED_SINGULAR)
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        rec = report.records[4]
        assert not rec.theta_flagged
        assert rec.d2 is None and rec.sigma_flagged
        assert report.records[7].theta_flagged and report.records[7].d2 is None
        for r in report.records:
            if r.server_id != 5 and not r.theta_flagged:
                assert r.d2 == expected[r.server_id]  # the same bits

    def test_gating_invariant(self):
        # sigma can only be questioned for servers whose estimate passed.
        rng = np.random.default_rng(17)
        for _ in range(25):
            ests = clean_estimates(rng, k=15)
            # randomly corrupt a few
            for sid in rng.choice(15, size=3, replace=False):
                kind = rng.random()
                e = ests[sid]
                if kind < 0.4:
                    ests[sid] = est(e.server_id, e.n_k, e.theta_star + 100, e.sigma_star)
                elif kind < 0.7:
                    ests[sid] = est(e.server_id, e.n_k, e.theta_star, e.sigma_star / 50)
                else:
                    ests[sid] = est(e.server_id, e.n_k, e.theta_star, np.diag([1.0, -1.0]))
            report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
            for rec in report.records:
                if rec.sigma_flagged:
                    assert not rec.theta_flagged
                if rec.theta_flagged:
                    assert rec.d2 is None and not rec.sigma_flagged

    def test_false_positive_calibration_quick(self):
        # With estimates drawn from the asymptotic law, the step-1 flag rate
        # at alpha = 0.05 stays near 5%.
        rng = np.random.default_rng(19)
        sigma = np.array([[17.5, 5.2], [5.2, 9.7]])
        flagged = total = 0
        for _ in range(60):
            ests = clean_estimates(rng, k=20, n_k=1000, sigma=sigma)
            report = detect(ests, [2.0, 1.0], sigma, alpha=0.05)
            flagged += len(report.flagged_theta_ids())
            total += 20
        assert 0.01 <= flagged / total <= 0.10

    def test_per_server_error_recorded(self):
        ests = [
            est(1, 100, [2.0, 1.0], np.eye(2)),
            LocalEstimate(2, 100, np.array([1.0, 2.0, 3.0]), np.eye(3)),
        ]
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        rec1, rec2 = report.records
        assert rec1.error is None
        assert rec2.error is not None
        assert not rec2.theta_flagged and not rec2.sigma_flagged

    def test_csv_columns(self):
        ests = [est(1, 100, [2.0, 1.0], np.eye(2))]
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.1)
        text = csv_text(report)
        lines = text.strip().splitlines()
        assert lines[0] == "server_id,n_k,d1,d2,theta_flagged,sigma_flagged,error"
        assert len(lines) == 2
        assert lines[1].startswith("1,100,")

    def test_alpha_validation(self):
        ests = [est(1, 100, [2.0, 1.0], np.eye(2))]
        with pytest.raises(ValueError):
            detect(ests, [2.0, 1.0], np.eye(2), alpha=0.0)


class TestColumnarReport:
    def test_columns_are_the_rows(self, monkeypatch):
        # A round with a step-1 flag, a failed step-1 solve, a failed step-2
        # solve, a sigma that is not PD and a member of another dimension:
        # the arrays say what the rows made from them say.
        rng = np.random.default_rng(41)
        ests = clean_estimates(rng, k=9)
        ests[1] = est(2, 1000, [2.001, 1.001], FORCED_SINGULAR)
        ests[3] = est(4, 400, [-1e6, -1e6], np.eye(2))
        ests[5] = est(6, 1000, [2.0, 1.0], np.diag([1.0, -1.0]))
        ests[4] = LocalEstimate(5, 10, np.zeros(3), np.eye(3))
        solve_rejecting(monkeypatch, FORCED_SINGULAR)
        report = detect(ests, [2.0, 1.0], np.eye(2), alpha=0.05)
        assert "records" not in vars(report)  # made only when read
        records = report.records
        assert [r.server_id for r in records] == list(report.server_ids) == list(range(1, 10))
        assert report.flagged_theta_ids() == [r.server_id for r in records if r.theta_flagged] == [4]
        assert report.flagged_sigma_ids() == [r.server_id for r in records if r.sigma_flagged] == [2, 6]
        assert records[4].error == "theta_hat dimension does not match the estimate"
        assert records[1].d2 is None and records[5].d2 is None
        assert set(report.errors) == {4}
        for i, r in enumerate(records):
            assert (r.theta_flagged, r.sigma_flagged) == (report.theta_flagged[i], report.sigma_flagged[i])
            if r.error is None:
                assert r.d1 == report.d1[i] and type(r.d1) is float
            assert (r.d2 is not None) == report.has_d2[i]

    def test_failed_step1_solve_is_an_error_row(self, monkeypatch):
        ests = [est(1, 100, [2.0, 1.0], np.eye(2)), est(2, 100, [2.0, 1.0], np.eye(2))]
        solve_rejecting(monkeypatch, FORCED_SINGULAR)
        report = detect(ests, [2.0, 1.0], FORCED_SINGULAR, alpha=0.05)
        assert report.errors == {0: "Singular matrix", 1: "Singular matrix"}
        assert not report.theta_flagged.any() and not report.sigma_flagged.any()
        assert report.flagged_theta_ids() == report.flagged_sigma_ids() == []
