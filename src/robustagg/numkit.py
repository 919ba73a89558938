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


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2, or that of every matrix of a ``(K, p, p)`` stack.

    An entry whose finite pair sums beyond the largest double is halved
    before it is added, ``A/2 + A^T/2``; only those entries, so every other
    keeps the bits of ``(A + A^T)/2`` (halving first would change subnormal
    ones).
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


def symmetric_mask(a: np.ndarray) -> np.ndarray:
    """The symmetry test of :func:`is_symmetric` for a matrix or for each
    matrix of a ``(..., p, p)`` stack."""
    scale = np.abs(a).max(axis=(-2, -1))
    asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    return (scale == 0.0) | (asym <= SYM_RTOL * scale)


def is_symmetric(a) -> bool:
    """True when the asymmetry of ``a`` is below ``SYM_RTOL`` relative to its scale."""
    return bool(symmetric_mask(_as_square(a)))


def ensure_symmetric(a) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized matrix.

    Raises :class:`DimensionError` for non-square input and ``ValueError``
    when the asymmetry exceeds ``SYM_RTOL``.
    """
    a = _as_square(a)
    if not is_symmetric(a):
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


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a (near-)symmetric matrix."""
    return float(_eigh(ensure_symmetric(a))[0][0])


def screen_positive_definite(stack) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a ``(K, p, p)`` stack pass :func:`require_pd`'s rule:
    every entry finite, symmetric within ``SYM_RTOL``, and the smallest
    ``eigh`` eigenvalue of the symmetrized matrix > 0.

    Returns ``(ok, sym)``: the boolean verdicts and the symmetrized stack.
    The finiteness and symmetry tests are exact elementwise work, silent
    about an infinite entry, and the
    matrices that pass them share one stacked ``eigh``, which returns the
    same bits as one call per matrix.  If the stacked call raises, the
    matrices are decomposed one at a time, so a failure is reported as
    :class:`NumericalError` for the matrix that caused it.
    """
    stack = _as_square_stack(stack)
    ok = np.zeros(stack.shape[0], dtype=bool)
    # inf - inf and inf + -inf give NaN only in a matrix that fails the
    # finiteness test anyway, and a finite pair that overflows its sum is
    # halved first by symmetrize, so they warn of nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        sym = symmetrize(stack)
        # An inf entry whose partner is finite passes the symmetry test (inf <= inf).
        symmetric = np.flatnonzero(symmetric_mask(stack) & np.isfinite(stack).all(axis=(1, 2)))
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

    The columns are laid out as rows.  Let ``k = ceil(log2(n + 2))`` and,
    for a row, ``2**E >= max|p|`` (``E`` from ``frexp`` on the first pass).
    A pass sets ``sigma = 2**(k + E)`` and splits every entry exactly as
    ``q = (p + sigma) - sigma``, ``p -= q``.  Every ``q`` is a multiple of
    ``2**(k + E - 53)`` with ``|q| <= 2**E``, so every partial sum of a row
    of ``q`` is such a multiple below ``n * 2**E < sigma`` in magnitude,
    which is a double: numpy's pairwise row sum is exact in whatever order
    it adds.  The pass leaves ``|p| <= 2**(k + E - 53)``, which is the next
    pass's ``2**E``; once every ``p`` is zero (two or three passes for
    sandwich products) the pass sums add up exactly to the column sum, and
    the finish rounds that real number correctly, as ``fsum`` over the
    column does.  One pass sum is the sum itself.  Two are added by one
    IEEE addition, which rounds their exact sum to nearest, ties to even,
    exactly as ``fsum`` of two doubles does; a pass sum is never ``-0.0``
    (``q`` is ``+0.0`` or nonzero) and stays below ``sigma <= 2**1021``, so
    the addition cannot overflow.  Three or more go to ``math.fsum``.

    Columns with a non-finite entry, or with ``k + E`` above
    ``_MAX_SIGMA_EXP`` (where ``sigma`` or ``p + sigma`` could overflow), go
    to one ``fsum`` each, so ``inf``, ``nan`` and ``fsum``'s own errors come
    out as they always did.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {a.shape}")
    n, m = a.shape
    rows = np.array(a.T, order="C")
    k = (n + 1).bit_length()  # smallest k with 2**k >= n + 2
    amax = np.abs(rows).max(axis=1)
    exp = np.frexp(amax)[1] + k
    fallback = ~np.isfinite(amax) | (exp > _MAX_SIGMA_EXP)
    sums = np.empty(m)
    live = slice(None)
    if fallback.any():
        for j in np.flatnonzero(fallback):
            sums[j] = math.fsum(rows[j].tolist())
        live = np.flatnonzero(~fallback)
        if not live.size:
            return sums / n
        rows, exp = rows[live], exp[live]

    # The next exponent follows from the bound, without another max.  It
    # stops at E = -1074, the subnormal spacing, where a pass takes every
    # remaining p whole.
    passes = []
    q = np.empty_like(rows)
    while True:
        sigma = np.ldexp(1.0, exp)[:, None]
        np.add(rows, sigma, out=q)
        q -= sigma
        passes.append(q.sum(axis=1))
        rows -= q
        if not rows.any():
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
