"""Dense symmetric linear algebra and exact column sums.

All functions are pure: they never mutate their inputs and hold no state, so
they are safe to call from any number of concurrent workers.  Matrices are
plain ``numpy`` arrays; "symmetric matrix" means symmetric to within a small
relative tolerance (text round-trips of transmitted matrices can lose exact
symmetry, so near-symmetric inputs are symmetrized rather than rejected).

One rule decides whether a matrix is usable as positive definite: every
entry finite, symmetric within ``SYM_RTOL``, and the smallest ``eigh``
eigenvalue of its symmetrized form > 0 (a NaN eigenvalue fails).
:func:`screen_positive_definite` applies it to a stack of received
matrices and returns verdicts; :func:`require_pd` applies it to one matrix,
such as the aggregated variance matrix, and raises or returns the checked
:class:`PDMatrix`, which it passes through unchanged when it meets it again.

The screen reaches most verdicts without ``eigh``: a Cholesky factorization
of ``S - 2**-30 max|s_ij| I`` that runs to completion proves the smallest
eigenvalue of the symmetrized ``S`` positive by a margin far wider than
``eigh``'s rounding, so ``eigh`` would say > 0 as well (the bound is in
:func:`screen_positive_definite`).  It is used for p <= 8.  Only the finite
symmetric matrices that run cannot certify, and all of them for larger p,
go to ``eigh``, which decides them as before.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, NumericalError

# Relative asymmetry tolerated before an input stops counting as symmetric.
SYM_RTOL = 1e-12

# Eigenvalue floor used when projecting onto the positive definite cone.
PD_EPSILON = 1e-5


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionError("matrix dimension must be >= 1")
    return a


def _as_square_stack(stack) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise DimensionError(f"expected a stack of square matrices, got shape {stack.shape}")
    return stack


@np.errstate(over="ignore", invalid="ignore")
def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2, or that of every matrix of a ``(K, p, p)`` stack.

    An entry whose finite pair sums beyond the largest double is halved
    before it is added, ``A/2 + A^T/2``; only those entries, so every other
    keeps the bits of ``(A + A^T)/2`` (halving first would change subnormal
    ones).  So the overflow warns of nothing, nor does the NaN of
    ``inf + -inf``, which only a non-finite matrix has.
    """
    a = np.asarray(a, dtype=float)
    a = _as_square_stack(a) if a.ndim == 3 else _as_square(a)
    at = a.swapaxes(-1, -2)
    sym = (a + at) / 2.0
    over = np.isinf(sym)
    if over.any():
        over &= np.isfinite(a) & np.isfinite(at)
        sym[over] = a[over] / 2.0 + at[over] / 2.0
    return sym


@np.errstate(over="ignore", invalid="ignore")
def symmetric_mask(a: np.ndarray) -> np.ndarray:
    """Whether the asymmetry of a matrix, or of each matrix of a
    ``(..., p, p)`` stack, is within ``SYM_RTOL`` relative to its scale.

    The NaN of ``inf - inf`` fails the test, and a finite pair whose
    difference overflows is asymmetric, so neither warns.  An inf entry
    whose partner is finite passes it (``inf <= inf``); callers test
    finiteness apart."""
    scale = np.abs(a).max(axis=(-2, -1))
    asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    return (scale == 0.0) | (asym <= SYM_RTOL * scale)


def ensure_symmetric(a) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized matrix.

    Raises :class:`DimensionError` for non-square input and ``ValueError``
    when the asymmetry exceeds ``SYM_RTOL``.
    """
    a = _as_square(a)
    if not symmetric_mask(a):
        raise ValueError(
            f"matrix is not symmetric within relative tolerance {SYM_RTOL:g}"
        )
    return symmetrize(a)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` (eigenvalues ascending) with non-convergence
    reported as :class:`NumericalError`."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.linalg.cond(a))
        except np.linalg.LinAlgError:
            cond = float("inf")
        raise NumericalError(
            f"symmetric eigendecomposition did not converge: {exc}",
            condition_estimate=cond,
        ) from exc


# The Cholesky certificate of screen_positive_definite: the shift relative
# to the largest entry m, the range of m (delta = m * shift stays normal),
# and the largest p, the largest one the verdict-parity sweep against eigh
# covered.
_CERT_SHIFT = 2.0**-30
_CERT_RANGE = (2.0**-960, 2.0**960)
_CERT_MAX_P = 8


@np.errstate(all="ignore")
def _certified_pd(sym: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Which matrices of a stack of finite symmetric matrices, of largest
    entries ``scale``, a Cholesky factorization of ``S - delta I``,
    ``delta = 2**-30 scale``, proves positive definite: each run completes
    with every pivot > 0.

    The factorization runs on all matrices at once, column by column, on a
    ``(p, p, K)`` copy, so that each step is a few contiguous operations
    across the matrices.  A run that fails may overflow or take the root
    of a negative pivot on its way; such values only make a later pivot
    fail, since every entry below the diagonal is squared into a later
    pivot, so their warnings are silenced, and a run that completes
    overflowed nowhere.
    """
    b = sym.transpose(1, 2, 0).copy()
    diag = np.arange(sym.shape[-1])
    b[diag, diag] -= _CERT_SHIFT * scale
    certified = np.ones(sym.shape[0], dtype=bool)
    for j in diag:
        pivot = b[j, j]
        certified &= pivot > 0.0
        col = b[j + 1 :, j] / np.sqrt(pivot)
        b[j + 1 :, j + 1 :] -= col[:, None] * col[None]
    return certified


def screen_positive_definite(stack) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a ``(K, p, p)`` stack pass :func:`require_pd`'s rule:
    every entry finite, symmetric within ``SYM_RTOL``, and the smallest
    ``eigh`` eigenvalue of the symmetrized matrix > 0.

    Returns ``(ok, sym)``: the boolean verdicts and the symmetrized stack.
    The finiteness and symmetry tests are exact elementwise work, silent
    about an infinite entry.  A matrix that passes them is certified
    positive definite by :func:`_certified_pd`, without ``eigh``, when
    ``m = max|s_ij|`` lies in ``[2**-960, 2**960]`` and ``p <= 8``.  The
    certificate gives the verdict ``eigh`` would give:

    * With ``delta = 2**-30 m`` and ``B`` the computed ``S - delta I`` (only
      its diagonal is rounded, by at most ``u m``, ``u = 2**-53``), a
      Cholesky factorization of ``B`` that runs to completion gives
      ``R^T R = B + E`` with ``|E| <= gamma |R^T| |R|``, ``gamma =
      (p + 1) u / (1 - (p + 1) u)`` (Demmel 1989, *On floating point errors
      in Cholesky*, LAPACK Working Note 14; Higham 2002, *Accuracy and
      Stability of Numerical Algorithms*, Thm 10.3), in any order of the
      sums.  Since ``||R||_F^2 = tr(B + E) <= tr(B) + gamma ||R||_F^2``,
      ``||E||_2 <= gamma / (1 - gamma) tr(B) <= p gamma / (1 - gamma) m``,
      and ``R^T R`` is positive semidefinite, so ``lambda_min(S) >= delta -
      ||E||_2 - u m >= (2**-30 - 2**-40) m``.
    * The range keeps ``delta`` a normal double: an underflowing product or
      quotient adds at most ``2**-1075`` per operation, far below ``delta``,
      and no quantity of a completed run exceeds ``max(m, sqrt(m))`` by
      more than rounding, so none overflows.
    * ``eigh`` is backward stable: its smallest eigenvalue is within a
      modest multiple of ``p u ||S||_2 <= p**2 u m`` (``<= 2**-47 m`` for
      ``p <= 8``, so a multiple up to ``2**7`` is covered) of the exact
      one, so it is > 0 too.  That multiple is not proven; 12,000 seeded
      matrices with p from 1 to 8, some within rounding of zero and some
      at the shift, gave no verdict other than ``eigh``'s, so the
      certificate is used only up to p = 8.

    A round of clean matrices calls no ``eigh``; a round with one hostile
    matrix sends that matrix alone.  Those not certified (a pivot not > 0,
    ``m`` out of range, zero included, or ``p > 8``) share one stacked
    ``eigh``, which returns the same bits as one call per matrix.  If the
    stacked call raises, they are decomposed one at a time, so a failure is
    reported as :class:`NumericalError` for the matrix that caused it.

    An unshifted Cholesky would not do: it rejects matrices whose smallest
    ``eigh`` eigenvalue is positive but within rounding of zero (README,
    Reproducibility), which ``eigh`` keeps and so does this screen.
    """
    stack = _as_square_stack(stack)
    ok = np.zeros(stack.shape[0], dtype=bool)
    sym = symmetrize(stack)
    symmetric = np.flatnonzero(symmetric_mask(stack) & np.isfinite(stack).all(axis=(1, 2)))
    if symmetric.size and stack.shape[1] <= _CERT_MAX_P:
        scale = np.abs(sym[symmetric]).max(axis=(1, 2))
        inside = (scale >= _CERT_RANGE[0]) & (scale <= _CERT_RANGE[1])
        ok[symmetric[inside]] = _certified_pd(sym[symmetric[inside]], scale[inside])
        symmetric = symmetric[~ok[symmetric]]
    if symmetric.size:
        try:
            smallest = np.linalg.eigh(sym[symmetric])[0][:, 0]
        except np.linalg.LinAlgError:
            smallest = np.array([_eigh(a)[0][0] for a in sym[symmetric]])
        ok[symmetric] = smallest > 0.0
    return ok, sym


class PDMatrix(NamedTuple):
    """A matrix that passed :func:`require_pd`: its symmetrized form and
    the eigenpairs of one ``eigh``, eigenvalues descending (``eigh``'s
    ascending pairs reversed by view), all three read-only.

    Build one only with :func:`require_pd`, which hands a ``PDMatrix`` of
    the asked size back as it is, so a matrix checked once is not
    decomposed again by the stages it is passed on to.
    """

    sym: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def roots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Q diag(v^{1/2}) Q^T, Q diag(v^{-1/2}) Q^T)``, the symmetric
        square root and inverse square root B, with B A B = I.

        The descending order matters: it is the order of the sums in the
        matrix products, so the roots keep the bits they had when the pairs
        were sorted by ``argsort``.
        """
        q, roots = self.vectors, np.sqrt(self.values)
        return symmetrize((q * roots) @ q.T), symmetrize((q / roots) @ q.T)


def require_pd(a, p: int | None = None) -> PDMatrix:
    """The rule of :func:`screen_positive_definite` for one matrix, which
    must be ``p x p`` (any square size when ``p`` is None).

    Returns the :class:`PDMatrix` of ``a`` from one ``eigh``; a ``PDMatrix``
    of the right size is returned as it is, without another decomposition.
    A wrong shape raises :class:`DimensionError`; a non-finite entry, an
    asymmetry beyond ``SYM_RTOL`` or a smallest eigenvalue that is not > 0
    raises :class:`NotPositiveDefiniteError`, naming the eigenvalue where
    there is one.  This is the one test of the variance matrix that whitens
    the Huber aggregate and standardizes detection's step 1.
    """
    if isinstance(a, PDMatrix):
        if p is None or a.sym.shape == (p, p):
            return a
        a = a.sym
    a = np.asarray(a, dtype=float)
    if p is not None and a.shape != (p, p):
        raise DimensionError(f"expected a {p} x {p} matrix, got shape {a.shape}")
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError("matrix has a non-finite entry")
    if not symmetric_mask(a):
        raise NotPositiveDefiniteError(
            f"matrix is not symmetric within relative tolerance {SYM_RTOL:g}"
        )
    sym = symmetrize(a)
    values, vectors = _eigh(sym)
    if not values[0] > 0.0:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite; apply pd_project first",
            eigenvalue=float(values[0]),
        )
    checked = PDMatrix(sym, values[::-1], vectors[:, ::-1])
    for array in checked:
        array.flags.writeable = False
    return checked


def inv_sqrt_pd(a) -> np.ndarray:
    """The inverse square root B of a positive definite matrix, with
    B A B = I: the second of ``require_pd(a).roots()``.

    Raises as :func:`require_pd` does.
    """
    return require_pd(a).roots()[1]


# Largest exponent of the extraction constant that keeps it and every
# ``p + sigma`` finite; columns that would need more are summed by ``fsum``.
_MAX_SIGMA_EXP = 1021


def exact_column_means(a) -> np.ndarray:
    """``math.fsum(col) / n`` for every column of an ``(n, m)`` array.

    Returns the same doubles as one ``math.fsum`` per column, computed with
    a few vectorized passes of error-free extraction (Rump, Ogita & Oishi
    2008, *Accurate floating-point summation*).

    Let ``k = ceil(log2(n + 2))`` and, for a column, ``2**E >= max|p|``
    (``E`` from ``frexp`` on the first pass).  A pass sets
    ``sigma = 2**(k + E)`` and splits every entry exactly as
    ``q = (p + sigma) - sigma``, ``p -= q``.  Every ``q`` is a multiple of
    ``2**(k + E - 53)`` with ``|q| <= 2**E``, so every partial sum of a
    column of ``q`` is such a multiple below ``n * 2**E < sigma`` in
    magnitude, which is a double: numpy's sum is exact in whatever order
    it adds.  The pass leaves ``|p| <= 2**(k + E - 53)``, which is the next
    pass's ``2**E``; once every ``p`` is zero (two or three passes for
    sandwich products) the pass sums add up exactly to the column sum, and
    the finish rounds that real number correctly, as ``fsum`` over the
    column does.  One pass sum is the sum itself.  Two are added by one
    IEEE addition, which rounds their exact sum to nearest, ties to even,
    exactly as ``fsum`` of two doubles does; a pass sum is never ``-0.0``
    (``q`` is ``+0.0`` or nonzero) and stays below ``sigma <= 2**1021``, so
    the addition cannot overflow.  Three or more go to ``math.fsum``.

    Since every pass sum is exact in any order, the layout is free: a block
    with more columns than rows (``m > n``, such as the sandwich sums of a
    stacked pass of short shards) is worked on as ``(n, m)`` and summed
    down its rows, each pass one long vectorized addition per row; any
    other block is worked on as ``(m, n)``, one contiguous row per column.

    Columns with a non-finite entry, or with ``k + E`` above
    ``_MAX_SIGMA_EXP`` (where ``sigma`` or ``p + sigma`` could overflow), go
    to one ``fsum`` each, so ``inf``, ``nan`` and ``fsum``'s own errors come
    out as they always did.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {a.shape}")
    n, m = a.shape
    # ``cols`` is the working copy with one column of ``a`` per entry of
    # its axis ``ax``; the sums run along the other axis.
    ax = 1 if m > n else 0
    cols = np.array(a if ax else a.T, order="C")
    along = 1 - ax
    across = (1, -1) if ax else (-1, 1)  # the shape of one number per column
    k = (n + 1).bit_length()  # smallest k with 2**k >= n + 2
    amax = np.abs(cols).max(axis=along)
    exp = np.frexp(amax)[1] + k
    fallback = ~np.isfinite(amax) | (exp > _MAX_SIGMA_EXP)
    sums = np.empty(m)
    live = slice(None)
    if fallback.any():
        for j in np.flatnonzero(fallback):
            sums[j] = math.fsum(a[:, j].tolist())
        live = np.flatnonzero(~fallback)
        if not live.size:
            return sums / n
        cols, exp = cols.take(live, axis=ax), exp[live]

    # The next exponent follows from the bound, without another max.  It
    # stops at E = -1074, the subnormal spacing, where a pass takes every
    # remaining p whole.
    passes = []
    q = np.empty_like(cols)
    while True:
        sigma = np.ldexp(1.0, exp).reshape(across)
        np.add(cols, sigma, out=q)
        q -= sigma
        passes.append(q.sum(axis=along))
        cols -= q
        if not cols.any():
            break
        exp = np.maximum(exp + (k - 53), k - 1074)
    if len(passes) == 1:
        sums[live] = passes[0]
    elif len(passes) == 2:
        sums[live] = passes[0] + passes[1]
    else:
        sums[live] = [math.fsum(col) for col in np.stack(passes, axis=1).tolist()]
    return sums / n


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row of two ``(K, p)`` arrays.

    A stacked ``matmul`` of ``(1, p)`` by ``(p, 1)``, which reaches the
    ``dot`` of the 1-D call, so each entry has that call's bits, and the
    square root of ``row_dots(a, a)`` those of the 1-D ``np.linalg.norm``
    (``einsum("ij,ij->i")`` and ``np.linalg.norm(a, axis=1)`` sum in
    another order).
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@functools.lru_cache(maxsize=32)
def triu_indices(p: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(p, k)``, built once per (p, k) and read-only."""
    rows, cols = np.triu_indices(p, k)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def vech(a) -> np.ndarray:
    """Stack the lower triangle (diagonal included) column by column."""
    return vech_stack(ensure_symmetric(a))


def vech_stack(sym: np.ndarray) -> np.ndarray:
    """:func:`vech` of a symmetric matrix, or of each matrix of a
    ``(..., p, p)`` stack of symmetric matrices, without the symmetry check."""
    # Column-major lower triangle of A == row-major upper triangle of A^T.
    return sym.swapaxes(-1, -2)[(..., *triu_indices(sym.shape[-1]))]


def vech_len(p: int) -> int:
    return p * (p + 1) // 2


def vech_inv(v, p: int) -> np.ndarray:
    """Inverse of :func:`vech`: rebuild the p x p symmetric matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if p < 1:
        raise DimensionError("matrix dimension must be >= 1")
    if v.size != vech_len(p):
        raise DimensionError(
            f"vech vector has length {v.size}, expected {vech_len(p)} for p={p}"
        )
    return vech_inv_stack(v, p)


def vech_inv_stack(v: np.ndarray, p: int) -> np.ndarray:
    """:func:`vech_inv` of a vector, or of each row of a ``(..., vech_len(p))``
    array, without the length checks."""
    a = np.zeros(v.shape[:-1] + (p, p))
    a.swapaxes(-1, -2)[(..., *triu_indices(p))] = v
    upper = (..., *triu_indices(p, 1))
    a[upper] = a.swapaxes(-1, -2)[upper]
    return a


def pd_project(a) -> np.ndarray:
    """Project a (near-)symmetric matrix onto { eigenvalues >= PD_EPSILON }.

    Symmetrizes first, then clips each eigenvalue at ``PD_EPSILON`` and
    rebuilds.  A matrix whose smallest eigenvalue already is >= PD_EPSILON
    is returned unchanged (no reconstruction round-off is introduced).
    """
    a = symmetrize(a)
    values, vectors = np.linalg.eigh(a)
    if values[0] >= PD_EPSILON:
        return a
    clipped = np.maximum(values, PD_EPSILON)
    return symmetrize((vectors * clipped) @ vectors.T)
