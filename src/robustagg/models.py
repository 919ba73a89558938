"""M-estimation problems (logistic and linear regression) and local fitting.

A local server fits its own shard and reports the estimate together with the
empirical sandwich variance of the estimator.  Observation sequences are held
columnar (response vector plus design matrix) so the criterion, gradient and
Hessian evaluate as vectorized reductions; indexing an :class:`Observations`
still yields individual ``(y, x)`` pairs.

Summation discipline: fitting uses single-threaded ``einsum``/``add.reduce``
reductions (deterministic for a fixed observation order), while the sandwich
variance accumulates every entry with exactly rounded summation so the
transmitted matrix is bit-identical under any permutation of the shard.

Every published number depends on these exact bits, so a faster form of a
reduction is acceptable only where it returns the same doubles.  Measured
with numpy 2.4 and OpenBLAS 0.3:

* Same bits: one ``math.fsum`` per entry over the ``tolist()`` of a product
  column, however the product array is laid out; error-free extraction,
  ``numkit.exact_column_means``, which the sandwich uses.  Its passes split
  every entry exactly at ``sigma = 2**(ceil(log2(n + 2)) + E)``, with
  ``2**E >= max|p|``, into a part whose row sums numpy computes exactly in
  any order and a remainder that the next pass splits again; the few exact
  pass sums are then rounded to the true column sum, as ``fsum`` over the
  column rounds it.  The three-operand Hessian
  ``einsum("i,ij,ik->jk", w, X, X)``, which sums each entry one product at
  a time in observation order, starting from 0; and, in the central
  processor, stacked ``eigh`` and stacked ``solve`` with one right-hand
  side per matrix (see README.md).
* Same bits, stacked over K equal-size shards (:func:`fit_shards`): X'X as
  ``einsum("kij,kil->kjl", X, X)``; X'y as ``X.swapaxes(-1, -2) @ y[...,
  None]`` and the linear predictor as ``X @ theta[..., None]`` (stacked
  ``matmul``); the linear gradient as ``einsum("ki,kij->kj", resid, X)``;
  stacked ``solve`` for theta and for both sides of the sandwich; per
  pass, one ``exact_column_means`` call for every shard's gbar and U sums
  and one for V.  ``grad_norm`` is the 1-D ``np.linalg.norm`` of each
  shard's gradient, from one stacked ``numkit.row_dots`` (see below).
* Same bits, in the lockstep logistic Newton (:func:`_newton`, which
  :func:`criterion_eval` shares): ``expit`` and ``logaddexp`` as before;
  the criterion value as ``np.add.reduce(y * eta - logaddexp(0, eta),
  axis=-1) / n``, the pairwise summation of each contiguous row that the
  1-D call applies; the gradient as ``einsum("ki,kij->kj", y - pi, X)``;
  the Hessian from the products ``(w * x_j) * x_k`` of all p * p entries,
  summed by ``np.add.accumulate`` along n with the last partial sum taken
  and ``+ 0.0`` added.  That is the three-operand einsum's sum: both add
  one product at a time in observation order, and ``+ 0.0`` turns the one
  sum that differs, all ``-0.0`` (einsum starts from ``+0.0``), into
  ``+0.0``.  Both (j, k) and (k, j) are needed, because they round
  differently and ``symmetrize`` averages them.  Steps by stacked
  ``solve`` with one right-hand side per shard; the gradient and theta
  norms of the convergence and divergence tests are the square roots of
  one stacked ``numkit.row_dots`` per test, whose ``matmul`` reaches the
  ``dot`` of the 1-D ``np.linalg.norm`` (0 of 70,000 random rows
  differed, p 1-7, overflow-scale and zero rows included).  The
  accumulate Hessian equalled the einsum in all of 1,407 matrices (350
  random stacks, p 2-5, column scales 1e-3 to 1e3).  The stacked
  three-operand ``einsum("ki,kij,kil->kjl")`` has the same bits too, but
  took 214-237 us against 146-148 us for the accumulate at K=6, n=1000,
  p=2, so it is not used.
* Different bits, so not used: ``(w[:, None] * X).T @ X`` (BLAS, 291 of 300
  random shards differ); one 1-D ``add.reduce`` per Hessian entry (pairwise
  summation, 300 of 300; summed along the stacked products' n axis, 1,391
  of those 1,407 matrices); the upper triangle's sums mirrored below the
  diagonal (1,249 of 1,407); ``1 / (1 + exp(-eta))`` with numpy's own
  ``exp`` for ``expit`` (7,806 of 400,000 values); and the two-operand
  ``einsum("ij,ik->jk", w[:, None] * X, X)``, which agrees for p >= 2 but
  at p = 1 switches to a vectorized reduction (188 of 200 shards differ).
  Of 4,000 linear shards (K=400, n=50, p=5, ten datasets):
  ``einsum("kij,ki->kj", X, y)`` for X'y differed from ``X.T @ y`` in
  3,990; ``einsum("ij,j->i", X, theta)`` for the linear predictor from
  ``X @ theta`` in 4,000; and ``np.linalg.norm(grads, axis=1)`` from the
  1-D norm in 479.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionError,
    NonConvergenceError,
    RankDeficiencyError,
    RobustAggError,
    SeparationError,
    SingularMatrixError,
)
from . import numkit

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# Iterate growth beyond this multiple of the first Newton step signals that
# the step norms diverge (complete separation).
_DIVERGENCE_RATIO = 1e4

# A fit whose every margin exceeds this classifies each observation with
# probability within ~1e-6 of its label: the likelihood has no interior
# maximizer and the gradient tolerance was reached only through saturation.
_SATURATED_MARGIN = 13.8


# Product entries in one stacked pass of fit_shards: per shard, n * (p +
# p(p+1)/2) sandwich products or, where more, the n * p * p Hessian products
# of a logistic Newton iteration.  The stacked arrays of a pass are a few
# copies of that many doubles, so this bounds the memory a pass adds.
STACK_ENTRIES = 1 << 15


class ModelKind(Enum):
    LOGISTIC = "logistic"
    LINEAR = "linear"


@dataclass(frozen=True)
class ModelSpec:
    """An M-estimation problem: which criterion, and how many parameters."""

    kind: ModelKind
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("parameter dimension p must be >= 1")

    @classmethod
    def logistic(cls, p: int) -> "ModelSpec":
        return cls(ModelKind.LOGISTIC, p)

    @classmethod
    def linear(cls, p: int) -> "ModelSpec":
        return cls(ModelKind.LINEAR, p)


class Observations:
    """A sequence of observations (y_i, x_i), stored columnar and immutable."""

    def __init__(self, y, X):
        y = np.ascontiguousarray(y, dtype=float)
        X = np.ascontiguousarray(X, dtype=float)
        if y.ndim != 1:
            raise DimensionError("y must be one-dimensional")
        if X.ndim != 2:
            raise DimensionError("X must be two-dimensional")
        if X.shape[0] != y.shape[0]:
            raise DimensionError(
                f"y has {y.shape[0]} rows but X has {X.shape[0]}"
            )
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise ValueError("observations must be finite")
        y.flags.writeable = False
        X.flags.writeable = False
        self.y = y
        self.X = X

    @functools.cached_property
    def binary(self) -> bool:
        """True when every response is 0 or 1 (computed once; data are immutable)."""
        return bool(np.isin(self.y, (0.0, 1.0)).all())

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return float(self.y[i]), self.X[i]
        if i.step not in (None, 1):
            return Observations(self.y[i], self.X[i])
        # Rows of checked data need no new checks, and a unit-step slice of
        # read-only contiguous arrays is a read-only contiguous view.
        shard = object.__new__(Observations)
        shard.y, shard.X = self.y[i], self.X[i]
        return shard


@dataclass(frozen=True)
class LocalFit:
    """One server's fitted estimate and its sandwich variance."""

    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    n_k: int
    server_id: int | str
    newton_iters: int
    grad_norm: float

    def __post_init__(self):
        self.theta_hat.flags.writeable = False
        self.sigma_hat.flags.writeable = False

    @functools.cached_property
    def sigma_pd(self) -> bool:
        """False when the sandwich came out numerically singular or indefinite
        (possible for degenerate shards, e.g. an exact fit with zero
        residuals); callers may repair such a matrix with ``numkit.pd_project``.
        Screened when first read."""
        return bool(numkit.screen_positive_definite(self.sigma_hat[None])[0][0])


def _check_data(model: ModelSpec, data: Observations) -> None:
    if data.n == 0:
        raise DimensionError("observation sequence is empty")
    if data.p != model.p:
        raise DimensionError(
            f"model expects p={model.p} covariates, data has {data.p}"
        )
    if model.kind is ModelKind.LOGISTIC and not data.binary:
        raise ValueError("logistic responses must be 0 or 1")


def criterion_eval(model: ModelSpec, data: Observations, theta):
    """Averaged criterion value with its analytic gradient and Hessian.

    Returns ``(value, gradient, hessian)`` of ``n^{-1} sum_i m(Z_i; theta)``.
    Logistic log-likelihood terms are evaluated through ``log1p``/``expit``
    so long linear predictors cannot overflow.
    """
    _check_data(model, data)
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != model.p:
        raise DimensionError(f"theta has length {theta.size}, expected {model.p}")
    y, X = data.y, data.X
    n = data.n
    eta = X @ theta

    if model.kind is ModelKind.LINEAR:
        resid = y - eta
        value = -float(np.add.reduce(resid * resid)) / n
        grad = 2.0 * np.einsum("i,ij->j", resid, X) / n
        hess = -2.0 * np.einsum("ij,ik->jk", X, X) / n
        return value, grad, numkit.symmetrize(hess)

    value, grad, _, pi = _logistic_eval(X[None], y[None], theta[None])
    return float(value[0]), grad[0], _logistic_hessians(np.ascontiguousarray(X.T)[None], pi)[0]


def _logistic_eval(X: np.ndarray, y: np.ndarray, thetas: np.ndarray):
    """Logistic criterion values and gradients of K equal-size shards,
    ``(K, n, p)`` designs ``X`` and ``(K, n)`` responses ``y`` at the
    ``(K, p)`` parameters ``thetas``.

    Returns ``(values, grads, eta, pi)``, the last two the linear predictors
    and probabilities.  ``m = y*eta - log(1 + e^eta)`` is evaluated through
    ``logaddexp`` so long linear predictors cannot overflow.  Every row has
    the bits of a one-shard call (see the module docstring).
    """
    n = X.shape[1]
    eta = (X @ thetas[..., None])[..., 0]
    pi = expit(eta)
    values = np.add.reduce(y * eta - np.logaddexp(0.0, eta), axis=-1) / n
    grads = np.einsum("ki,kij->kj", y - pi, X) / n
    return values, grads, eta, pi


def _logistic_hessians(cols: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Averaged logistic Hessians of K shards with probabilities ``pi``,
    given their designs one coordinate per row as a ``(K, p, n)`` stack.

    Each entry sums its products ``(w * x_j) * x_k`` one at a time in
    observation order, the sums of ``einsum("i,ij,ik->jk", w, X, X)``.  The
    first partial sum of ``add.accumulate`` is the first product, not
    ``0 + product``, so ``+ 0.0`` turns an all ``-0.0`` sum into einsum's
    ``+0.0``.  Both (j, k) and (k, j) are summed: they round differently and
    ``symmetrize`` averages them.
    """
    n = cols.shape[-1]
    w_cols = (pi * (1.0 - pi))[:, None, :] * cols
    prods = w_cols[:, :, None, :] * cols[:, None, :, :]
    sums = np.add.accumulate(prods, axis=-1, out=prods)[..., -1] + 0.0
    return numkit.symmetrize(-sums / n)


def _outer_rows(cols: np.ndarray) -> np.ndarray:
    """The products ``cols[..., j, :] * cols[..., k, :]`` for ``j <= k``, as
    rows in ``numkit.triu_indices`` order, the ``vech`` order of a symmetric
    matrix.

    ``cols`` holds one coordinate per row, a ``(K, p, n)`` stack of the
    transposed observation vectors, so every product runs over contiguous
    memory; each entry is one product, whatever the layout.
    """
    iu = numkit.triu_indices(cols.shape[-2])
    return cols[..., iu[0], :] * cols[..., iu[1], :]


def _row_means(stack: np.ndarray) -> np.ndarray:
    """Exactly rounded row means of every matrix of a ``(K, m, n)`` stack.

    All K*m rows go to one ``numkit.exact_column_means`` call, which sums
    each on its own, so the means are the bits of one call per matrix.
    """
    k, m, n = stack.shape
    return numkit.exact_column_means(stack.reshape(k * m, n).T).reshape(k, m)


def _mean_outer(cols: np.ndarray) -> np.ndarray:
    """Exactly rounded mean of the outer products of the observation
    vectors, given one coordinate per row as a ``(K, p, n)`` stack.

    Every entry is the correctly rounded sum of its products (the double
    ``math.fsum`` returns) over n, whatever the order of the observations,
    which makes the result invariant under their permutation.
    """
    return numkit.vech_inv_stack(_row_means(_outer_rows(cols)), cols.shape[-2])


def _stacked_sandwich(
    model: ModelSpec, X: np.ndarray, y: np.ndarray, thetas: np.ndarray, allow_singular: bool
) -> np.ndarray:
    """:func:`sandwich_variance` of K equal-size shards, ``(K, n, p)``
    designs ``X`` and ``(K, n)`` responses ``y`` at the ``(K, p)`` estimates
    ``thetas``, as one ``(K, p, p)`` stack.

    Every step is a stacked form that returns the bits of one call per shard:
    a stacked ``matmul`` for the linear predictor, elementwise products, two
    :func:`_row_means` calls over all shards' sums and two stacked
    ``solve`` calls.  If one shard's U is singular the stacked ``solve``
    raises for the whole stack.
    """
    p = model.p
    eta = (X @ thetas[..., None])[..., 0]
    cols = np.ascontiguousarray(X.swapaxes(-1, -2))
    if model.kind is ModelKind.LINEAR:
        grads = 2.0 * (y - eta)[:, None, :] * cols
        u_cols = cols
    else:
        pi = expit(eta)
        grads = (y - pi)[:, None, :] * cols
        w = pi * (1.0 - pi)
        u_cols = np.sqrt(w)[:, None, :] * cols
    # U does not depend on the mean gradient, so its sums share one call
    # with those of gbar; V is centered at gbar and needs a second call.
    # Each row is still summed on its own, so the bits are unchanged.
    means = _row_means(np.concatenate((grads, _outer_rows(u_cols)), axis=1))
    gbar = means[:, :p]
    u_hat = numkit.vech_inv_stack(means[:, p:], p)
    if model.kind is ModelKind.LINEAR:
        u_hat = 2.0 * u_hat
    v_hat = _mean_outer(grads - gbar[:, :, None])

    if allow_singular:
        sigma = np.stack([u_inv @ v @ u_inv for u_inv, v in zip(map(_pinv_sym, u_hat), v_hat)])
    else:
        try:
            half = np.linalg.solve(u_hat, v_hat)
            sigma = np.linalg.solve(u_hat, half.swapaxes(-1, -2)).swapaxes(-1, -2)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "averaged Hessian is singular; sandwich variance undefined"
            ) from None
    return numkit.symmetrize(sigma)


def sandwich_variance(
    model: ModelSpec, data: Observations, theta_hat, *, allow_singular: bool = False
) -> np.ndarray:
    """Empirical sandwich variance U^{-1} V U^{-1} at ``theta_hat``.

    V is the centered average of outer products of per-observation gradients
    (the mean gradient is subtracted even though it is ~0 at a solution) and
    U is the negative averaged Hessian.  With ``allow_singular=True`` a
    singular U is inverted in the pseudo-inverse sense, which the simulation
    layer needs when recomputing the matrix at an extreme contaminated
    parameter; by default a singular U raises.  With it, a matrix whose
    sums go beyond the largest double (``math.fsum`` raises on them, as on
    ``inf - inf``) comes out all NaN instead of raising, so it can still be
    sent and is then left out and flagged by the central processor.
    """
    _check_data(model, data)
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    if theta_hat.size != model.p:
        raise DimensionError(f"theta_hat has {theta_hat.size} coordinates, the model {model.p}")
    try:
        return _stacked_sandwich(
            model, data.X[None], data.y[None], theta_hat[None], allow_singular
        )[0]
    except (OverflowError, ValueError):
        # math.fsum's errors: an exact sum beyond the largest double, or
        # inf - inf among the products.
        if not allow_singular:
            raise
        return np.full((model.p, model.p), np.nan)


def _pinv_sym(a: np.ndarray) -> np.ndarray:
    """Eigenvalue-thresholded pseudo-inverse of a symmetric matrix.

    Besides the usual relative cutoff, eigenvalues below an absolute floor
    near machine precision are treated as exact zeros: for a saturated
    logistic fit the averaged Hessian can carry eigenvalues around 1e-200
    that are pure rounding debris, and inverting them would manufacture
    astronomically large variance matrices.
    """
    values, vectors = np.linalg.eigh(numkit.symmetrize(a))
    cutoff = max(np.abs(values).max() * 1e-12, 64.0 * np.finfo(float).eps)
    keep = np.abs(values) > cutoff
    inv = np.zeros_like(values)
    inv[keep] = 1.0 / values[keep]
    return numkit.symmetrize((vectors * inv) @ vectors.T)


def _norms(rows: np.ndarray) -> list[float]:
    """The 1-D ``np.linalg.norm`` of every row of a ``(K, p)`` array, bit
    for bit, from one stacked ``numkit.row_dots``."""
    return np.sqrt(numkit.row_dots(rows, rows)).tolist()


def _newton(X: np.ndarray, y: np.ndarray):
    """Logistic Newton-Raphson from the zero vector with step halving, for K
    equal-size shards, ``(K, n, p)`` designs ``X`` and ``(K, n)`` responses
    ``y``, in lockstep.

    Each iteration evaluates the shards still active in one stacked call and
    solves for their steps in one stacked ``solve``; every shard keeps its
    own step halving, convergence test and divergence and saturation checks,
    and leaves the active set when it converges.  A shard's iterates are the
    bits of a Newton run on that shard alone.  Returns ``(thetas,
    iterations, gradients)``; if any shard fails, the call raises.
    """
    if (y.min(axis=1) == y.max(axis=1)).any():
        raise SeparationError(
            "only one response class present; logistic MLE does not exist"
        )
    k, _, p = X.shape
    cols = np.ascontiguousarray(X.swapaxes(-1, -2))
    thetas = np.zeros((k, p))
    values, grads, etas, pis = _logistic_eval(X, y, thetas)
    iters = [0] * k
    first_norms = [0.0] * k
    # The shards still iterating and, in the same order, their data and state.
    active = list(range(k))
    X_a, y_a, cols_a, theta, value, grad, eta, pi = X, y, cols, thetas, values, grads, etas, pis
    it = 0
    while True:
        keep = []
        for pos, (i, norm) in enumerate(zip(active, _norms(grad))):
            if norm <= DEFAULT_TOL:
                thetas[i], grads[i], etas[i], iters[i] = theta[pos], grad[pos], eta[pos], it
            else:
                keep.append(pos)
        if len(keep) < len(active):
            active = [active[pos] for pos in keep]
            X_a, y_a, cols_a, theta, value, grad, eta, pi = (
                a[keep] for a in (X_a, y_a, cols_a, theta, value, grad, eta, pi)
            )
        if not active:
            break
        if it >= DEFAULT_MAX_ITER:
            raise NonConvergenceError(
                f"logistic fit did not converge in {DEFAULT_MAX_ITER} iterations",
                best=theta[0].copy(),
                residual=_norms(grad[:1])[0],
            )
        try:
            step = np.linalg.solve(-_logistic_hessians(cols_a, pi), grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "logistic Hessian is singular at the current iterate"
            ) from None
        # Step halving: keep each criterion from decreasing.  A shard takes
        # the 60th candidate whatever its value.
        cand = theta + step
        cand_value, cand_grad, cand_eta, cand_pi = _logistic_eval(X_a, y_a, cand)
        low = np.flatnonzero(~(cand_value >= value - 1e-14 * np.abs(value)))
        scale = 1.0
        for _ in range(59):
            if not low.size:
                break
            scale /= 2.0
            c = theta[low] + scale * step[low]
            v, g, e, q = _logistic_eval(X_a[low], y_a[low], c)
            cand[low], cand_value[low], cand_grad[low], cand_eta[low], cand_pi[low] = c, v, g, e, q
            low = low[~(v >= value[low] - 1e-14 * np.abs(value[low]))]
        theta, value, grad, eta, pi = cand, cand_value, cand_grad, cand_eta, cand_pi
        it += 1
        for i, norm in zip(active, _norms(theta)):
            if it == 1:
                first_norms[i] = norm
            if norm > _DIVERGENCE_RATIO * max(1.0, first_norms[i]):
                raise SeparationError(
                    "logistic step norms diverged; data appear completely separated"
                )
    margins = (2.0 * y - 1.0) * etas
    if (margins.min(axis=1) > _SATURATED_MARGIN).any():
        raise SeparationError(
            "every observation is classified with saturated probability; "
            "the data are completely separated"
        )
    return thetas, iters, grads


def _fit_group(model: ModelSpec, shards: list, server_ids: list) -> list[LocalFit]:
    """Fit shards of one size in one stacked pass.

    The linear fit is closed form: stacked ``einsum`` for X'X, stacked
    ``matmul`` for X'y and the linear predictor, and a stacked ``solve``.
    Logistic shards run one lockstep :func:`_newton`.  Both then share one
    :func:`_stacked_sandwich`.  For a single shard this is
    :func:`fit_local`, errors included; for more, a stacked step that raises
    does so for the whole group.
    """
    for data in shards:
        _check_data(model, data)
        if data.n < model.p:
            raise DimensionError(
                f"need at least p={model.p} observations, shard has {data.n}"
            )
    X = np.stack([data.X for data in shards])
    y = np.stack([data.y for data in shards])

    if model.kind is ModelKind.LINEAR:
        xtx = np.einsum("kij,kil->kjl", X, X)
        xty = X.swapaxes(-1, -2) @ y[..., None]
        try:
            thetas = np.linalg.solve(xtx, xty)[..., 0]
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "design matrix is rank deficient; least squares has no unique solution"
            ) from None
        # The gradient of criterion_eval, for every shard at once.
        resid = y - (X @ thetas[..., None])[..., 0]
        grads = 2.0 * np.einsum("ki,kij->kj", resid, X) / X.shape[1]
        iters = [0] * len(shards)
    else:
        thetas, iters, grads = _newton(X, y)

    sigmas = _stacked_sandwich(model, X, y, thetas, allow_singular=False)
    return [
        LocalFit(
            theta_hat=thetas[k],
            sigma_hat=sigmas[k],
            n_k=shards[k].n,
            server_id=server_ids[k],
            newton_iters=iters[k],
            grad_norm=grad_norm,
        )
        for k, grad_norm in enumerate(_norms(grads))
    ]


def fit_local(model: ModelSpec, data: Observations, server_id: int | str = 0) -> LocalFit:
    """Maximize the local criterion on one shard.

    Linear regression solves the normal equations in closed form; logistic
    regression runs Newton-Raphson from the zero vector with step halving,
    to gradient norm ``DEFAULT_TOL`` within ``DEFAULT_MAX_ITER`` iterations.
    Raises :class:`SeparationError` when the logistic iterates diverge (or
    only one response class is present), :class:`RankDeficiencyError` for a
    singular Hessian, and :class:`NonConvergenceError` at the iteration cap.
    """
    return _fit_group(model, [data], [server_id])[0]


def fit_shards(model: ModelSpec, shards, server_ids=None) -> list[LocalFit]:
    """:func:`fit_local` of every shard, with the shards of each size fitted
    in one stacked pass.

    ``server_ids`` defaults to the shard positions.  The fits are the bits
    of one :func:`fit_local` call per shard.  If a stacked step raises, the
    shards of that size are refit one :func:`fit_local` call at a time, in
    shard order once every size has been tried, so the error raised is the
    one the first failing shard raises on its own.
    """
    shards = list(shards)
    server_ids = list(range(len(shards)) if server_ids is None else server_ids)
    if len(server_ids) != len(shards):
        raise DimensionError("shards and server_ids must align one-to-one")
    groups: dict[int, list[int]] = {}
    for i, data in enumerate(shards):
        groups.setdefault(data.n, []).append(i)
    fits: list = [None] * len(shards)
    width = model.p + numkit.vech_len(model.p)
    if model.kind is ModelKind.LOGISTIC:
        width = max(width, model.p * model.p)
    for n, same_size in groups.items():
        per_pass = max(1, STACK_ENTRIES // (n * width))
        for start in range(0, len(same_size), per_pass):
            idx = same_size[start : start + per_pass]
            if len(idx) < 2:
                continue
            try:
                group = _fit_group(
                    model, [shards[i] for i in idx], [server_ids[i] for i in idx]
                )
            except (RobustAggError, ValueError):
                continue
            for i, fit in zip(idx, group):
                fits[i] = fit
    return [
        fit if fit is not None else fit_local(model, shards[i], server_id=server_ids[i])
        for i, fit in enumerate(fits)
    ]
