"""``numkit.exact_column_means`` against one ``math.fsum`` per column.

The helper must return exactly ``math.fsum(col) / n`` for every column, at
every size from one row on, and fail exactly as ``fsum`` fails.  The
reference here is always the plain per-column ``fsum``.
"""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustagg import numkit
from robustagg.numkit import exact_column_means

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fsum_means(a):
    n = a.shape[0]
    return np.array([math.fsum(col) / n for col in a.T.tolist()])


def outcome(fn, a):
    """The bits ``fn`` returns, or the type and message of what it raises."""
    try:
        return ("ok", np.asarray(fn(a), dtype=float).view(np.int64).tolist())
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_fsum(a):
    assert outcome(exact_column_means, a) == outcome(fsum_means, a)


def sigma_exponent_limit(n):
    """Columns with max|p| >= 2**this are summed by fsum, not extraction."""
    return 1021 - (n + 1).bit_length()


# ---------------------------------------------------------------------------
# Column generators
# ---------------------------------------------------------------------------


def scaled_gaussian(rng, n):
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0)


def mixed_magnitudes(rng, n):
    # Every entry on its own scale between 1e-300 and 1e+300.
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)


def cancelling_pairs(rng, n):
    # Mirror halves that cancel exactly, plus a few survivors far smaller
    # than the bulk, so the exact sum sits many orders below the terms.
    half = rng.standard_normal((n + 1) // 2) * 10.0 ** rng.uniform(-100.0, 100.0)
    col = np.concatenate([half, -half[::-1]])[:n]
    col[rng.integers(0, n, 3)] *= 1.0 + 2.0 ** -52
    return rng.permutation(col)


def subnormals_and_zeros(rng, n):
    col = rng.integers(-(2**52), 2**52, n) * 5e-324
    col[rng.random(n) < 0.3] = 0.0
    col[rng.random(n) < 0.3] = -0.0
    return col


def dyadic_mix(rng, n):
    # Few-bit values across the whole range, including exact ties.
    return rng.choice(
        [1e300, -1e300, 1.0, -1.0, 0.5, 2.0**-1022, -(2.0**-1074), 1e-300, 0.0, -0.0],
        n,
    )


GENERATORS = [scaled_gaussian, mixed_magnitudes, cancelling_pairs, subnormals_and_zeros, dyadic_mix]


@st.composite
def structured_arrays(draw):
    n = draw(st.integers(1, 4000))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(st.lists(st.sampled_from(GENERATORS), min_size=m, max_size=m))
    rng = np.random.default_rng(seed)
    return np.stack([kind(rng, n) for kind in kinds], axis=1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestAgainstFsum:
    @SETTINGS
    @given(structured_arrays())
    def test_structured_columns(self, a):
        assert_same_as_fsum(a)

    @SETTINGS
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 700), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_arbitrary_finite_entries(self, a):
        # Any finite doubles, subnormals, -0.0 and values near the overflow
        # threshold included; fsum may raise, and then so must the helper.
        assert_same_as_fsum(a)

    @SETTINGS
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.integers(1, 600),
    )
    def test_tiled_cancellation(self, values, reps):
        # A drawn set of values and their negations, tiled up to thousands
        # of rows: the exact sum is the drawn survivor alone.
        base = np.array(values + [-v for v in values[1:]])
        col = np.tile(base, reps)
        assert_same_as_fsum(np.stack([col, col[::-1]], axis=1))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 299, 300, 1499, 1500, 1501, 5000])
    def test_crossover_boundary(self, n):
        rng = np.random.default_rng(n)
        a = np.stack([kind(rng, n) for kind in GENERATORS], axis=1)
        assert_same_as_fsum(a)
        assert_same_as_fsum(a[:, :1])

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_zero_columns(self, n):
        # All-zero columns, -0.0 included: fsum returns 0.0 for each.
        a = np.zeros((n, 4))
        a[:, 1] = -0.0
        a[::2, 2] = -0.0
        a[:, 3] = [1.0, -1.0] * (n // 2) + [0.0] * (n % 2)
        assert_same_as_fsum(a)


def inf_entry(rng, n):
    col = rng.standard_normal(n)
    col[rng.integers(0, n)] = rng.choice([np.inf, -np.inf])
    return col


def nan_entry(rng, n):
    col = rng.standard_normal(n)
    col[rng.integers(0, n)] = np.nan
    return col


def beyond_the_guard(rng, n):
    # Entries at the extraction guard, which fsum sums: exactly, or to an
    # overflow it raises for.
    col = rng.choice([1.0, -1.0], n) * 2.0 ** sigma_exponent_limit(n)
    col[0] = rng.standard_normal()
    return col


SPECIALS = [inf_entry, nan_entry, beyond_the_guard]


@st.composite
def wide_arrays(draw):
    """More columns than rows, with inf, NaN and guard columns among them."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(n + 1, 700))
    seed = draw(st.integers(0, 2**32 - 1))
    special_share = draw(st.sampled_from([0.0, 0.01, 0.1]))
    rng = np.random.default_rng(seed)
    kinds = [
        SPECIALS[rng.integers(len(SPECIALS))] if rng.random() < special_share
        else GENERATORS[rng.integers(len(GENERATORS))]
        for _ in range(m)
    ]
    return np.stack([kind(rng, n) for kind in kinds], axis=1)


class TestFallbackColumns:
    N = 2000

    def make(self, special):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((self.N, 3))
        a[:, 1] = special
        return a

    @pytest.mark.parametrize(
        "special",
        [
            np.inf,
            -np.inf,
            np.nan,
            [np.inf, -np.inf] * (N // 2),  # fsum: "-inf + inf in fsum"
            [np.inf, np.nan] * (N // 2),
        ],
    )
    def test_non_finite(self, special):
        assert_same_as_fsum(self.make(special))

    def test_overflowing_sum_raises_like_fsum(self):
        a = self.make(1e308)
        with pytest.raises(OverflowError):
            math.fsum(a[:, 1].tolist())
        assert_same_as_fsum(a)

    def test_large_but_exact_column(self):
        limit = sigma_exponent_limit(self.N)
        col = np.zeros(self.N)
        col[0], col[1], col[2] = 2.0**limit, -(2.0**limit), 3.0
        assert_same_as_fsum(self.make(col))

    def test_threshold_routes_columns(self, monkeypatch):
        # One column just below the overflow guard goes through extraction
        # (one pass, so fsum never sees it); one at the guard goes to fsum.
        calls = []

        def counting_fsum(values):
            values = list(values)
            calls.append(len(values))
            return math.fsum(values)

        monkeypatch.setattr(numkit, "math", types.SimpleNamespace(fsum=counting_fsum))
        limit = sigma_exponent_limit(self.N)
        a = np.full((self.N, 2), 0.75)
        a[:, 0] *= 2.0**limit  # max|p| < 2**limit: extraction
        a[:, 1] = 2.0**limit  # max|p| >= 2**limit: fallback
        got = exact_column_means(a)
        assert calls == [self.N]
        monkeypatch.undo()
        assert np.array_equal(got, fsum_means(a))

    def test_rejects_non_matrix(self):
        from robustagg.errors import DimensionError

        with pytest.raises(DimensionError):
            exact_column_means(np.ones(5))


# ---------------------------------------------------------------------------
# The finish: one pass sum is the sum, two are added by one IEEE addition,
# three or more go to fsum.  Each column below is built to need an exact
# number of extraction passes, counted by the calls to ``np.ldexp`` (one per
# pass).
# ---------------------------------------------------------------------------


def extraction_passes(monkeypatch, a):
    """The result of ``exact_column_means(a)`` and its number of passes."""
    calls = []
    ldexp = np.ldexp

    def counting_ldexp(*args):
        calls.append(1)
        return ldexp(*args)

    monkeypatch.setattr(numkit.np, "ldexp", counting_ldexp)
    try:
        got = exact_column_means(a)
    finally:
        monkeypatch.undo()
    return got, len(calls)


def exact_sum(col):
    return sum(map(Fraction, col.tolist()), Fraction(0))


def one_pass_columns(rng, n):
    # Small integers: the first pass takes every entry whole.
    return rng.integers(-1000, 1000, (n, 3)).astype(float)


def two_pass_columns(rng, n):
    # Integers times 2**40 plus a low part the first pass leaves behind.
    a = rng.integers(-1000, 1000, (n, 3)).astype(float) * 2.0**40
    return a + rng.integers(-1000, 1000, (n, 3)).astype(float)


def three_pass_columns(rng, n):
    # The first two passes leave entries far below the bulk untouched.
    a = two_pass_columns(rng, n)
    a[rng.integers(0, n, 5), :] = 2.0**-60 * rng.integers(1, 1000, (5, 3))
    return a


def halfway_columns(rng, n):
    """Columns whose exact sum lies half-way between two doubles: a bulk the
    first pass takes, summing to between 2**52 and 2**53 (where doubles are
    1 apart), and integers plus one half, which only the second pass takes."""
    bulk = n // 2
    cols = []
    for sign, below in ((1.0, 0.5), (1.0, -0.5), (-1.0, 0.5), (-1.0, -0.5)):
        col = np.zeros(n)
        col[:bulk] = sign * 2.0 ** (53 - bulk.bit_length())
        col[n // 2 : n // 2 + 10] = rng.integers(-500, 500, 10)
        col[-1] = below
        cols.append(rng.permutation(col))
    return np.stack(cols, axis=1)


class TestFinish:
    @pytest.mark.parametrize(
        "make, passes",
        [(one_pass_columns, 1), (two_pass_columns, 2), (three_pass_columns, 3)],
    )
    @pytest.mark.parametrize("n", [300, 2000])
    def test_columns_of_known_pass_count(self, monkeypatch, make, passes, n):
        a = make(np.random.default_rng(n + passes), n)
        got, counted = extraction_passes(monkeypatch, a)
        assert counted == passes
        assert got.tobytes() == fsum_means(a).tobytes()

    @pytest.mark.parametrize("n", [300, 400, 2000, 6000])
    def test_halfway_sums_round_to_even(self, monkeypatch, n):
        a = halfway_columns(np.random.default_rng(n), n)
        got, counted = extraction_passes(monkeypatch, a)
        assert counted == 2
        for col in a.T:
            exact = exact_sum(col)
            rounded = math.fsum(col.tolist())
            assert 2.0**52 <= abs(rounded) < 2.0**53
            assert abs(Fraction(rounded) - exact) == Fraction(1, 2)
            assert rounded % 2.0 == 0.0  # ties to even
        assert got.tobytes() == fsum_means(a).tobytes()


class TestWideBlocks:
    """A block with more columns than rows is summed down its rows; the
    doubles (and errors) are those of one fsum per column all the same."""

    @SETTINGS
    @given(wide_arrays())
    def test_structured_wide_blocks(self, a):
        assert_same_as_fsum(a)
        # The layout of the memory does not matter either.
        assert_same_as_fsum(np.asfortranarray(a))

    @pytest.mark.parametrize(
        "make, passes",
        [(one_pass_columns, 1), (two_pass_columns, 2), (three_pass_columns, 3)],
    )
    def test_wide_blocks_of_known_pass_count(self, monkeypatch, make, passes):
        rng = np.random.default_rng(passes)
        a = np.concatenate([make(rng, 40) for _ in range(30)], axis=1)  # (40, 90)
        got, counted = extraction_passes(monkeypatch, a)
        assert counted == passes
        assert got.tobytes() == fsum_means(a).tobytes()

    def test_fallback_columns_among_live_ones(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 200)) * rng.standard_normal((30, 200))
        a[4, 10], a[:, 50], a[9, 120] = np.inf, 2.0 ** sigma_exponent_limit(30), np.nan
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(numkit, "math", types.SimpleNamespace(fsum=lambda v: calls.append(1) or fsum(v)))
        got = exact_column_means(a)
        monkeypatch.undo()
        assert len(calls) == 3
        assert got.tobytes() == fsum_means(a).tobytes()
