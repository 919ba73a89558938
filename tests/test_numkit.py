import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from robustagg import numkit
from robustagg.aggregate import LocalEstimate
from robustagg.detect import detect
from robustagg.errors import DimensionError, NotPositiveDefiniteError


def pd_roots(a):
    """Both roots of a PD matrix, from one check and factorization."""
    return numkit.require_pd(a).roots()


def random_pd(rng, p, cond=100.0):
    """Random symmetric PD matrix with the requested condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    values = np.logspace(0.0, math.log10(cond), p)
    return (q * values) @ q.T


class TestSymEig:
    """The descending eigenpairs require_pd returns, which PDMatrix.roots builds on."""

    def test_identity(self):
        _, values, _ = numkit.require_pd(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        _, values, _ = numkit.require_pd(np.diag([4.0, 9.0]))
        assert np.allclose(values, [9.0, 4.0])

    def test_two_by_two_hand_algebra(self):
        # [[2,1],[1,2]]: characteristic polynomial (2-l)^2 - 1 = 0 -> l = 3, 1
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        _, values, vectors = numkit.require_pd(a)
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        v = vectors[:, 0]
        assert np.allclose(np.abs(v), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_characteristic_polynomial_oracle_2x2(self):
        # For symmetric [[a,b],[b,d]] roots are ((a+d) +- sqrt((a-d)^2+4b^2))/2;
        # a matrix whose smaller root is not > 0 is rejected, naming it.
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, d = rng.standard_normal(3)
            m = np.array([[a, b], [b, d]])
            disc = math.sqrt((a - d) ** 2 + 4 * b * b)
            expected = np.array([(a + d + disc) / 2, (a + d - disc) / 2])
            if expected[1] > 1e-9:
                _, values, _ = numkit.require_pd(m)
                assert np.allclose(values, expected, atol=1e-12)
            elif expected[1] < -1e-9:
                with pytest.raises(NotPositiveDefiniteError) as excinfo:
                    numkit.require_pd(m)
                assert excinfo.value.eigenvalue == pytest.approx(expected[1], abs=1e-12)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 5, 12):
            b = rng.standard_normal((p, p))
            a = b @ b.T + 0.1 * np.eye(p)
            sym, values, vectors = numkit.require_pd(a)
            assert np.array_equal(sym, numkit.symmetrize(a))
            rebuilt = (vectors * values) @ vectors.T
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
            assert np.abs(vectors.T @ vectors - np.eye(p)).max() <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            numkit.require_pd(np.array([[1.0, 2.0], [0.0, 1.0]]))


@st.composite
def gate_matrices(draw):
    """p x p matrices (p 1-6) on both sides of the PD rule: PD, zero, tiny
    and negative eigenvalues, the zero matrix, asymmetric pairs and NaN or
    +-inf entries on and off the diagonal."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.1, 10.0, p) * 10.0 ** draw(st.sampled_from([-300, -8, 0, 8, 300]))
    smallest = draw(st.sampled_from(["positive", "zero", "tiny", "negative"]))
    if smallest == "zero":
        values[0] = 0.0
    elif smallest == "tiny":
        values[0] = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-320.0, -12.0))
    elif smallest == "negative":
        values[0] = -values[0]
    if draw(st.booleans()):
        m = np.diag(values)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        m = numkit.symmetrize((q * values) @ q.T)
    i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    defect = draw(st.sampled_from(["none", "zero matrix", "asymmetric", "non-finite", "both non-finite"]))
    if defect == "zero matrix":
        m = np.zeros((p, p))
    elif defect == "asymmetric":
        m[i, j] += np.abs(m).max() * 10.0 ** draw(st.floats(-14.0, 0.0))
    elif defect != "none":
        m[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if defect == "both non-finite":
            m[j, i] = m[i, j]
    return m


class TestRequirePd:
    """require_pd is the one-matrix form of screen_positive_definite."""

    @settings(max_examples=400, deadline=None)
    @given(gate_matrices())
    def test_agrees_with_the_screen(self, m):
        p = m.shape[0]
        with np.errstate(all="ignore"):
            ok, sym = numkit.screen_positive_definite(m[None])
            try:
                got, values, vectors = numkit.require_pd(m, p)
            except NotPositiveDefiniteError as exc:
                assert not ok[0]
                if exc.eigenvalue is not None:
                    assert not exc.eigenvalue > 0.0
                    assert exc.eigenvalue == float(np.linalg.eigh(sym[0])[0][0])
            else:
                assert ok[0]
                assert np.array_equal(got, sym[0])
                assert values[-1] > 0.0 and (np.diff(values) <= 0.0).all()
            with pytest.raises(DimensionError):
                numkit.require_pd(m, p + 1)

    def test_infinite_entry_is_rejected(self):
        # symmetric_mask passes it (inf <= inf) and eigh would give NaN
        # eigenvalues, which a "<= 0" test lets through.
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            numkit.require_pd(np.array([[1.0, np.inf], [0.0, 1.0]]), 2)

    def test_wrong_shape(self):
        for a in (np.eye(3), np.ones((2, 3)), np.ones(2)):
            with pytest.raises(DimensionError):
                numkit.require_pd(a, 2)
        with pytest.raises(DimensionError):
            numkit.require_pd(np.ones((2, 3)))

    def test_checked_matrix_passes_through(self, monkeypatch):
        checked = numkit.require_pd(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert isinstance(checked, numkit.PDMatrix)
        assert not any(array.flags.writeable for array in checked)

        def no_eigh(a):
            raise AssertionError("decomposed again")

        monkeypatch.setattr(numkit, "_eigh", no_eigh)
        assert numkit.require_pd(checked) is checked
        assert numkit.require_pd(checked, 2) is checked
        with pytest.raises(DimensionError, match="expected a 3 x 3 matrix"):
            numkit.require_pd(checked, 3)


def sorted_root_reference(a, inverse):
    """The (inverse) square root from eigenpairs sorted descending by
    argsort, as it was built before the pairs were reversed by view."""
    values, vectors = np.linalg.eigh(numkit.symmetrize(a))
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order]
    scaled = vectors / np.sqrt(values) if inverse else vectors * np.sqrt(values)
    return numkit.symmetrize(scaled @ vectors.T)


class TestInvSqrt:
    def test_scaled_identity(self):
        assert np.allclose(numkit.inv_sqrt_pd(4.0 * np.eye(2)), 0.5 * np.eye(2))

    def test_diagonal(self):
        out = numkit.inv_sqrt_pd(np.diag([4.0, 9.0]))
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_two_by_two_identity_product(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = numkit.inv_sqrt_pd(a)
        assert np.abs(b @ a @ b - np.eye(2)).max() < 1e-12

    def test_random_pd_identity_within_1e8(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = int(rng.integers(1, 8))
            a = random_pd(rng, p, cond=10 ** rng.uniform(0, 6))
            b = numkit.inv_sqrt_pd(a)
            err = np.linalg.norm(b @ a @ b - np.eye(p))
            assert err <= 1e-8

    def test_not_pd_names_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            numkit.inv_sqrt_pd(np.diag([1.0, -3.0]))
        assert excinfo.value.eigenvalue == pytest.approx(-3.0)

    @pytest.mark.parametrize("root", [numkit.inv_sqrt_pd, pd_roots])
    def test_rejects_asymmetric(self, root):
        with pytest.raises(ValueError):
            root(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_same_bits_as_argsort_order(self):
        # Reordering the eigenpairs reorders the sums of the matrix product,
        # so only the descending order keeps the bits; ties included.
        rng = np.random.default_rng(19)
        for p in range(1, 7):
            for _ in range(40):
                a = random_pd(rng, p, cond=10 ** rng.uniform(0, 8))
                root, inv_root = pd_roots(a)
                assert np.array_equal(root, sorted_root_reference(a, False))
                assert np.array_equal(inv_root, sorted_root_reference(a, True))
                assert np.array_equal(numkit.inv_sqrt_pd(a), inv_root)
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            tied = (q * np.repeat([3.0, 1.0], (p + 1) // 2)[:p]) @ q.T
            root, inv_root = pd_roots(tied)
            assert np.array_equal(root, sorted_root_reference(tied, False))
            assert np.array_equal(inv_root, sorted_root_reference(tied, True))
            assert np.array_equal(numkit.inv_sqrt_pd(tied), inv_root)


class TestRowDots:
    """Stacked dot products against one 1-D call per row."""

    @staticmethod
    def rows(rng, p):
        # Row scales from subnormal-adjacent to overflow-scale (squares of
        # entries beyond ~1.3e154 overflow), plus zero and signed-zero rows.
        a = rng.standard_normal((400, p)) * 10.0 ** rng.uniform(-300.0, 300.0, (400, 1))
        a[:40] /= np.abs(a[:40]).max(axis=1, keepdims=True)
        a[:40] *= 10.0 ** rng.uniform(150.0, 160.0, (40, 1))
        a[40] = 0.0
        a[41] = -0.0
        a[42, 0] = -0.0
        return a

    @pytest.mark.parametrize("p", range(1, 8))
    def test_norms_equal_the_1d_norm(self, p):
        rng = np.random.default_rng(70 + p)
        a = self.rows(rng, p)
        with np.errstate(over="ignore"):
            got = np.sqrt(numkit.row_dots(a, a))
            want = np.array([np.linalg.norm(row) for row in a])
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got[:40]).any() and got[40] == 0.0

    @pytest.mark.parametrize("p", range(1, 8))
    def test_dots_equal_the_1d_dot(self, p):
        rng = np.random.default_rng(80 + p)
        a = self.rows(rng, p)
        b = rng.standard_normal((400, p)) * 10.0 ** rng.uniform(-10.0, 10.0, (400, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            got = numkit.row_dots(a, b)
            want = np.array([x @ y for x, y in zip(a, b)])
        assert got.tobytes() == want.tobytes()


class TestVech:
    def test_examples(self):
        assert numkit.vech(np.array([[1.0, 2.0], [2.0, 3.0]])).tolist() == [1, 2, 3]
        assert numkit.vech(np.eye(3)).tolist() == [1, 0, 0, 1, 0, 1]
        assert numkit.vech(np.ones((3, 3))).tolist() == [1] * 6

    def test_inverse_examples(self):
        assert np.array_equal(
            numkit.vech_inv([1.0, 2.0, 3.0], 2), np.array([[1.0, 2.0], [2.0, 3.0]])
        )
        assert np.array_equal(numkit.vech_inv([5.0], 1), np.array([[5.0]]))
        assert np.array_equal(numkit.vech_inv([1, 0, 0, 1, 0, 1], 3), np.eye(3))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        for p in range(1, 11):
            a = rng.standard_normal((p, p))
            a = (a + a.T) / 2
            assert np.array_equal(numkit.vech_inv(numkit.vech(a), p), a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            numkit.vech_inv([1.0, 2.0], 2)


class TestPdProject:
    def test_already_pd_untouched(self):
        assert np.array_equal(numkit.pd_project(np.eye(2)), np.eye(2))

    def test_clips_negative(self):
        out = numkit.pd_project(np.diag([1.0, -1.0]))
        assert np.allclose(out, np.diag([1.0, 1e-5]))

    def test_clips_zero(self):
        out = numkit.pd_project(np.diag([0.0, 2.0]))
        assert np.allclose(out, np.diag([1e-5, 2.0]))

    def test_min_eigenvalue_floor_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            a = rng.standard_normal((p, p))
            out = numkit.pd_project((a + a.T) / 2)
            assert numkit.require_pd(out).values[-1] >= 1e-5 - 1e-12

    def test_symmetrizes_first(self):
        a = np.array([[1.0, 0.5], [0.1, 1.0]])
        out = numkit.pd_project(a)
        assert np.array_equal(out, out.T)
        assert out[0, 1] == pytest.approx(0.3)


class TestSymmetrize:
    def test_stack_equals_one_call_per_matrix(self):
        rng = np.random.default_rng(17)
        for p in (1, 2, 5):
            stack = rng.standard_normal((7, p, p))
            want = np.stack([numkit.symmetrize(a) for a in stack])
            assert np.array_equal(numkit.symmetrize(stack), want)

    def test_pairs_that_overflow_are_halved_first(self):
        # Only the pairs whose sum overflows are halved before adding: the
        # subnormal pair keeps (a + a.T) / 2 = 5e-324, where halving first
        # would give 0, and an infinite entry stays infinite.
        a = np.array(
            [
                [1e308, 1.5e308, 5e-324, 1.0],
                [1.7e308, 2.0, -3.0, 0.5],
                [5e-324, -1.0, -1e308, 0.0],
                [math.inf, 0.5, 0.0, 1.0],
            ]
        )
        sym = numkit.symmetrize(a)
        assert sym[0, 1] == sym[1, 0] == 1.5e308 / 2 + 1.7e308 / 2
        assert sym[0, 0] == 1e308 and sym[2, 2] == -1e308
        assert sym[0, 2] == 5e-324 and sym[0, 3] == math.inf
        with np.errstate(over="ignore"):
            plain = (a + a.T) / 2
        kept = np.isfinite(plain)
        assert np.array_equal(sym[kept], plain[kept])
        assert np.array_equal(numkit.symmetrize(np.stack([a, a.T])), np.stack([sym, sym]))

    @pytest.mark.parametrize("shape", [(3, 2, 3), (3, 0, 0), (2, 2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionError):
            numkit.symmetrize(np.zeros(shape))


def threshold_squared(dof, alpha):
    """The squared detection threshold, read from a screen of one server."""
    server = LocalEstimate(1, 100, np.zeros(dof), np.eye(dof))
    return detect([server], np.zeros(dof), np.eye(dof), alpha=alpha).threshold ** 2


class TestChi2Quantile:
    """The upper-alpha chi-squared quantile of the detection threshold."""

    def test_dof2_analytic(self):
        # P(chi2_2 > t) = exp(-t/2), so t = -2 ln(alpha).
        assert threshold_squared(2, 0.05) == pytest.approx(-2.0 * math.log(0.05), abs=1e-9)

    def test_alpha_near_one_limit(self):
        assert threshold_squared(2, 1 - 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_dof23_monte_carlo_oracle(self):
        # Oracle 1: empirical tail frequency of chi-squared draws.
        t = threshold_squared(23, 0.05)
        rng = np.random.default_rng(29)
        draws = rng.chisquare(23, size=1_000_000)
        freq = float((draws > t).mean())
        assert freq == pytest.approx(0.05, abs=1e-3)
        # Oracle 2: scipy's inverse survival function.
        assert t == pytest.approx(stats.chi2.isf(0.05, 23), abs=1e-9)
        assert t == pytest.approx(35.17, abs=0.01)

    def test_survival_round_trip(self):
        for dof in (1, 2, 5, 23, 100):
            for alpha in (0.9, 0.5, 0.1, 0.05, 0.001):
                t = threshold_squared(dof, alpha)
                assert stats.chi2.sf(t, dof) == pytest.approx(alpha, rel=1e-9)

    def test_strictly_decreasing_in_alpha(self):
        grid = [0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 0.99]
        values = [threshold_squared(5, a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            threshold_squared(2, 0.0)
        with pytest.raises(ValueError):
            threshold_squared(2, 1.0)
